package eval

import (
	"rhsd/internal/baseline/adaboost"
	"rhsd/internal/baseline/patmatch"
	"rhsd/internal/metrics"
)

// Extended-table detector names.
const (
	DetPatMatch = "PatternMatch"
	DetAdaBoost = "AdaBoost"
)

// RunExtendedTable1 adds the paper's two *other* method classes — fuzzy
// pattern matching and classical (pre-CNN) machine learning — to the
// comparison, trained and evaluated under the Table-1 protocol. The paper
// surveys both in §1 without benchmarking them; this extended table
// completes the method-class picture on the synthetic suite.
func RunExtendedTable1(p Profile, data *Data, progress func(string)) (*metrics.Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	say := func(s string) {
		if progress != nil {
			progress(s)
		}
	}
	tbl := &metrics.Table{Detectors: []string{DetPatMatch, DetAdaBoost, DetOurs}}

	say("training " + DetPatMatch)
	pmCfg := patmatch.DefaultConfig()
	pmCfg.ClipNM = p.HSD.ClipNM()
	pm := patmatch.New(pmCfg)
	pm.Train(data.MergedTrain)

	say("training " + DetAdaBoost)
	abCfg := adaboost.DefaultConfig()
	abCfg.ClipNM = p.HSD.ClipNM()
	ab := adaboost.New(abCfg)
	ab.Train(data.MergedTrain)

	ours, err := data.trainOurs(p.HSD, DetOurs, progress)
	if err != nil {
		return nil, err
	}

	for _, ds := range data.Cases {
		say("evaluating " + ds.Name)
		tbl.AddRow(ds.Name, DetPatMatch, pm.Evaluate(ds.Test))
		tbl.AddRow(ds.Name, DetAdaBoost, ab.Evaluate(ds.Test))
		tbl.AddRow(ds.Name, DetOurs, EvalOurs(ours, ds.Test))
	}
	return tbl, nil
}
