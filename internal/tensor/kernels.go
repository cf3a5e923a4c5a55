package tensor

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// kernelSet is the micro-kernel registry of one precision: the fp32
// kernels (gemmKernels, gemm_kernel.go) and the int8 ones
// (qgemmKernels, qgemm_kernel.go) each instantiate it. It holds every
// registered kernel, the one GEMMs of that precision dispatch to, and
// the record of the environment override that may have forced it.
//
// The active kernel is picked once at init, widest usable first, and
// read through an atomic pointer, so swap can replace it while GEMMs
// run: each call loads it once and uses exactly one kernel.
type kernelSet[K any] struct {
	label     string   // names the precision in errors: "GEMM", "int8 GEMM"
	env       string   // the override variable, e.g. RHSD_GEMM_KERNEL
	all       []*K     // portable kernels first; all[0] runs on every host
	preferred []string // init's pick order, widest first
	name      func(*K) string
	usable    func(*K) bool // safe to execute on this machine

	active atomic.Pointer[K]

	// request records the override and whether it was honored, so the
	// kernel-matrix CI step can tell "forced" from "fell back" and skip
	// with a logged reason.
	request struct {
		name    string
		present bool
		honored bool
	}
}

func (s *kernelSet[K]) lookup(name string) *K {
	for _, kr := range s.all {
		if s.name(kr) == name {
			return kr
		}
	}
	return nil
}

// names lists every registered kernel, available or not, sorted for
// stable output.
func (s *kernelSet[K]) names() []string {
	var names []string
	for _, kr := range s.all {
		names = append(names, s.name(kr))
	}
	sort.Strings(names)
	return names
}

func (s *kernelSet[K]) available(name string) bool {
	kr := s.lookup(name)
	return kr != nil && s.usable(kr)
}

func (s *kernelSet[K]) activeName() string { return s.name(s.active.Load()) }

// swap makes the named kernel active and returns the previous name; an
// unknown or unusable name errors and leaves dispatch unchanged.
func (s *kernelSet[K]) swap(name string) (prev string, err error) {
	kr := s.lookup(name)
	if kr == nil {
		return s.activeName(), fmt.Errorf("tensor: unknown %s kernel %q (have %v)", s.label, name, s.names())
	}
	if !s.usable(kr) {
		return s.activeName(), fmt.Errorf("tensor: %s kernel %q unsupported on this CPU", s.label, name)
	}
	return s.name(s.active.Swap(kr)), nil
}

// init activates the widest usable kernel, then applies the override;
// an unusable override is reported on stderr and the pick stays.
func (s *kernelSet[K]) init() {
	pick := s.all[0]
	for _, name := range s.preferred {
		if kr := s.lookup(name); kr != nil && s.usable(kr) {
			pick = kr
			break
		}
	}
	s.active.Store(pick)

	if env, ok := os.LookupEnv(s.env); ok {
		s.request.name = env
		s.request.present = true
		if _, err := s.swap(env); err != nil {
			fmt.Fprintf(os.Stderr, "tensor: %s: %v; using %q\n", s.env, err, s.activeName())
		} else {
			s.request.honored = true
		}
	}
}

func init() {
	gemmKernels.init()
	qgemmKernels.init()
}
