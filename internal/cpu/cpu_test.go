package cpu

import (
	"runtime"
	"testing"
)

// TestFeatureImplications checks internal consistency of the detected
// flags: the wider sets imply the narrower ones on any real machine
// (and on amd64, SSE2 is an architectural baseline).
func TestFeatureImplications(t *testing.T) {
	f := X86
	if runtime.GOARCH == "amd64" && !f.SSE2 {
		t.Fatalf("amd64 host without SSE2: %+v", f)
	}
	if f.AVX2 && !f.AVX {
		t.Errorf("AVX2 without AVX: %+v", f)
	}
	if f.AVX512F && !f.AVX2 {
		// Every shipped AVX-512 part implements AVX2; a violation here
		// means the XCR0/CPUID plumbing disagrees with itself.
		t.Errorf("AVX512F without AVX2: %+v", f)
	}
	if f.HasAVX512() && !f.HasAVX2FMA() {
		t.Errorf("HasAVX512 but not HasAVX2FMA: %+v", f)
	}
	if f.AVX512VNNI && !f.AVX512F {
		// VNNI is an extension of the AVX-512 foundation; both flags sit
		// behind the same ZMM OS-state gate, so they must agree.
		t.Errorf("AVX512VNNI without AVX512F: %+v", f)
	}
	if f.AVX512BW && !f.AVX512F {
		// BW extends the foundation behind the same ZMM OS-state gate.
		t.Errorf("AVX512BW without AVX512F: %+v", f)
	}
	if f.HasAVX512BW() != (f.AVX512BW && f.AVX512F) {
		t.Errorf("HasAVX512BW inconsistent with flags: %+v", f)
	}
	if f.AVXVNNI && !f.AVX {
		t.Errorf("AVXVNNI without AVX: %+v", f)
	}
	if f.HasAVX512VNNI() != (f.AVX512VNNI && f.AVX512F) {
		t.Errorf("HasAVX512VNNI inconsistent with flags: %+v", f)
	}
	t.Logf("detected: %v", f.FeatureList())
}

// TestFeatureListStable pins the tag set: sorted, no duplicates, and
// consistent with the boolean flags.
func TestFeatureListStable(t *testing.T) {
	tags := X86.FeatureList()
	seen := map[string]bool{}
	for i, tag := range tags {
		if seen[tag] {
			t.Fatalf("duplicate tag %q in %v", tag, tags)
		}
		seen[tag] = true
		if i > 0 && tags[i-1] > tag {
			t.Fatalf("tags not sorted: %v", tags)
		}
	}
	if seen["avx2"] != X86.AVX2 || seen["fma"] != X86.FMA || seen["avx512f"] != X86.AVX512F {
		t.Fatalf("tag set %v inconsistent with flags %+v", tags, X86)
	}
	if seen["avx512bw"] != X86.AVX512BW {
		t.Fatalf("avx512bw tag in %v inconsistent with flags %+v", tags, X86)
	}
	if seen["avx512vnni"] != X86.AVX512VNNI || seen["avxvnni"] != X86.AVXVNNI {
		t.Fatalf("VNNI tags in %v inconsistent with flags %+v", tags, X86)
	}
}

// TestGoamd64Floor checks the build-level floor raises flags
// monotonically and never lowers one already set.
func TestGoamd64Floor(t *testing.T) {
	var f X86Features
	f.AVX512F = true
	f.AVX512BW = true
	goamd64Floor(&f)
	if !f.AVX512F || !f.AVX512BW {
		t.Fatal("goamd64Floor cleared a detected flag")
	}
	// Whatever level the test binary was built at, the floor only adds
	// flags: a v4 build sets AVX512F and AVX512BW together, so after the
	// floor the two agree whenever either came from it.
	var g X86Features
	goamd64Floor(&g)
	if g.AVX512F != g.AVX512BW {
		t.Fatalf("floor set AVX512F=%v but AVX512BW=%v", g.AVX512F, g.AVX512BW)
	}
}
