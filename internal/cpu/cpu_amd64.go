package cpu

// cpuid executes the CPUID instruction for (leaf, subleaf); implemented
// in cpu_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0, which records the
// register state the OS saves/restores across context switches. A CPU
// feature is unusable unless the matching XCR0 bits are set; executing
// e.g. a VFMADD on a kernel that does not save YMM state corrupts other
// processes' registers. Implemented in cpu_amd64.s.
func xgetbv() (eax, edx uint32)

const (
	// CPUID.1:ECX
	cpuidSSE41   = 1 << 19
	cpuidFMA     = 1 << 12
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
	// CPUID.1:EDX
	cpuidSSE2 = 1 << 26
	// CPUID.7.0:EBX
	cpuidAVX2     = 1 << 5
	cpuidAVX512F  = 1 << 16
	cpuidAVX512BW = 1 << 30
	// CPUID.7.0:ECX
	cpuidAVX512VNNI = 1 << 11
	// CPUID.7.1:EAX
	cpuidAVXVNNI = 1 << 4
	// XCR0 state bits
	xcr0SSE    = 1 << 1
	xcr0AVX    = 1 << 2
	xcr0Opmask = 1 << 5
	xcr0ZMMHi  = 1 << 6
	xcr0Hi16   = 1 << 7
)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		goamd64Floor(&X86)
		return
	}
	_, _, ecx1, edx1 := cpuid(1, 0)
	X86.SSE2 = edx1&cpuidSSE2 != 0
	X86.SSE41 = ecx1&cpuidSSE41 != 0

	// AVX-family features need OSXSAVE plus the OS actually enabling
	// the wider register state in XCR0.
	osAVX, osAVX512 := false, false
	if ecx1&cpuidOSXSAVE != 0 {
		xeax, _ := xgetbv()
		const avxState = xcr0SSE | xcr0AVX
		const avx512State = avxState | xcr0Opmask | xcr0ZMMHi | xcr0Hi16
		osAVX = xeax&avxState == avxState
		osAVX512 = xeax&avx512State == avx512State
	}
	X86.AVX = osAVX && ecx1&cpuidAVX != 0
	X86.FMA = osAVX && ecx1&cpuidFMA != 0
	if maxLeaf >= 7 {
		// EAX of leaf 7 subleaf 0 reports the highest supported subleaf.
		maxSub, ebx7, ecx7, _ := cpuid(7, 0)
		X86.AVX2 = osAVX && ebx7&cpuidAVX2 != 0
		X86.AVX512F = osAVX512 && ebx7&cpuidAVX512F != 0
		X86.AVX512BW = osAVX512 && ebx7&cpuidAVX512BW != 0
		X86.AVX512VNNI = osAVX512 && ecx7&cpuidAVX512VNNI != 0
		if maxSub >= 1 {
			eax71, _, _, _ := cpuid(7, 1)
			X86.AVXVNNI = osAVX && eax71&cpuidAVXVNNI != 0
		}
	}
	goamd64Floor(&X86)
}
