// Package cpu detects x86 SIMD capability at startup so compute kernels
// can pick the widest instruction set the machine (and operating system)
// actually supports. It is the decision substrate for the GEMM
// micro-kernel dispatch in internal/tensor: feature flags come from
// CPUID + XGETBV on amd64 and are all-false elsewhere, so portable
// fallbacks are selected automatically.
//
// Detection happens once at package init and the result is immutable;
// reading X86 from any goroutine is race-free.
package cpu

import (
	"runtime/debug"
	"sort"
)

// X86Features reports the instruction-set extensions relevant to the
// float32 compute kernels. Each flag is true only when both the CPU
// advertises the feature and the OS has enabled the matching register
// state (XCR0), so a true flag means the instructions are safe to
// execute.
type X86Features struct {
	SSE2    bool // baseline on amd64 (always true there)
	SSE41   bool
	AVX     bool // CPU AVX + OSXSAVE + XCR0 XMM/YMM state
	FMA     bool // VFMADD* (implies AVX usable)
	AVX2    bool
	AVX512F bool // foundation; CPU flag + XCR0 opmask/ZMM state
	// AVX512BW adds the byte and word forms (VMOVDQU8, KMOVQ, VPMOVWB)
	// the int8 im2col packer uses; gated on the same ZMM OS state as
	// AVX512F.
	AVX512BW bool
	// AVX512VNNI is the 512-bit VPDPBUSD dot-product extension the int8
	// GEMM kernels use; gated on the same ZMM OS state as AVX512F.
	AVX512VNNI bool
	// AVXVNNI is the 256-bit VEX encoding of the VNNI dot products
	// (CPUID.7.1:EAX), gated on YMM OS state only. Probed so the
	// feature list is complete; no int8 kernel uses it.
	AVXVNNI bool
}

// X86 holds the detected features of the running machine. On non-amd64
// architectures every flag is false.
var X86 X86Features

// HasAVX2FMA reports whether the 256-bit FMA micro-kernels are safe.
func (f X86Features) HasAVX2FMA() bool { return f.AVX2 && f.FMA }

// HasAVX512 reports whether the 512-bit FMA micro-kernels are safe.
// AVX-512 implies FMA capability but we require the flag anyway: the
// kernels mix VFMADD231PS forms and a machine advertising AVX512F
// without FMA would be a CPUID lie worth failing safe on.
func (f X86Features) HasAVX512() bool { return f.AVX512F && f.FMA }

// HasAVX512BW reports whether the 512-bit byte-masked loads of the
// vector int8 im2col packer are safe. AVX512F is required alongside the
// BW bit, as for HasAVX512VNNI.
func (f X86Features) HasAVX512BW() bool { return f.AVX512BW && f.AVX512F }

// HasAVX512VNNI reports whether the 512-bit VPDPBUSD int8 dot-product
// kernel is safe. AVX512F is required alongside the VNNI bit: the kernel
// uses EVEX moves and zeroing that belong to the foundation set.
func (f X86Features) HasAVX512VNNI() bool { return f.AVX512VNNI && f.AVX512F }

// FeatureList renders the detected features as sorted lowercase tags
// (e.g. ["avx2" "fma" "sse2"]), the format embedded in benchmark
// reports so perf numbers stay interpretable across hosts.
func (f X86Features) FeatureList() []string {
	var tags []string
	add := func(on bool, tag string) {
		if on {
			tags = append(tags, tag)
		}
	}
	add(f.SSE2, "sse2")
	add(f.SSE41, "sse4.1")
	add(f.AVX, "avx")
	add(f.FMA, "fma")
	add(f.AVX2, "avx2")
	add(f.AVX512F, "avx512f")
	add(f.AVX512BW, "avx512bw")
	add(f.AVX512VNNI, "avx512vnni")
	add(f.AVXVNNI, "avxvnni")
	sort.Strings(tags)
	return tags
}

// goamd64Floor applies the compile-time GOAMD64 microarchitecture level
// as a floor under the runtime-detected flags: a binary compiled with
// GOAMD64=v3 already executes AVX2+FMA instructions unconditionally
// wherever the compiler chose to, so the dispatch layer must never
// select narrower than the build guarantees. CPUID normally agrees with
// the build level; this guards the degenerate case of a hypervisor
// masking CPUID bits while still executing the instructions.
func goamd64Floor(f *X86Features) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	level := ""
	for _, s := range info.Settings {
		if s.Key == "GOAMD64" {
			level = s.Value
		}
	}
	switch level {
	case "v4":
		f.AVX512F = true
		f.AVX512BW = true
		fallthrough
	case "v3":
		f.AVX = true
		f.AVX2 = true
		f.FMA = true
		fallthrough
	case "v2":
		f.SSE41 = true
		f.SSE2 = true
	}
}
