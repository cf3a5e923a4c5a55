package tensor

// Workspace is an arena of reusable scratch buffers keyed by power-of-two
// size class, the allocation substrate of the zero-allocation inference
// path. A kernel asks for scratch with Get/Tensor; the owner calls Reset
// at the start of each inference pass, which recycles every buffer
// handed out since the last Reset back into the size-class free lists.
// A kernel whose scratch dies before the pass ends (a conv's column
// matrix) may hand it back early with Release, so later layers of the
// same pass reuse it instead of growing the arena. Because a model's
// layer shapes are identical from pass to pass, the second and every
// later pass is served entirely from the free lists: steady-state
// inference performs no heap allocation and retains exactly one pass's
// footprint.
//
// Contracts:
//   - Buffers and tensors obtained from a Workspace are valid only until
//     the next Reset (or, for a released buffer, until its Release);
//     Reset invalidates all of them at once.
//   - Get returns dirty memory. Kernels writing into workspace tensors
//     must store every element (or use GetZeroed where they accumulate).
//   - A Workspace is not safe for concurrent use. Every goroutine that
//     runs inference owns its own Workspace — DetectLayout's per-replica
//     models each carry one, which is what keeps the tile-parallel scan
//     race-free.
//
// All methods accept a nil receiver and fall back to plain allocation,
// so code paths can be written once and run with or without an arena.
type Workspace struct {
	free    map[int][][]float32 // size class → free buffers
	live    []wsBuf             // handed out since the last Reset
	headers []*Tensor           // reusable Tensor headers
	used    int                 // headers in use since the last Reset
	scope   *ProfileScope       // per-pass profile attribution, nil = global only
}

// SetProfileScope installs the profile scope the infer kernels running
// against this workspace attribute their stage time to (nil detaches).
// The workspace is the natural carrier: it is per-model, owned by
// exactly one goroutine per pass, and already threaded through every
// inference entry point. Nil-receiver-safe like every Workspace method.
func (ws *Workspace) SetProfileScope(sc *ProfileScope) {
	if ws == nil {
		return
	}
	ws.scope = sc
}

// ProfileScope returns the installed scope, or nil (including on a nil
// workspace).
func (ws *Workspace) ProfileScope() *ProfileScope {
	if ws == nil {
		return nil
	}
	return ws.scope
}

type wsBuf struct {
	buf   []float32
	class int
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{free: make(map[int][][]float32)}
}

// Get returns a scratch slice of length n backed by a recycled buffer
// when one of the right size class is free. The contents are dirty.
func (ws *Workspace) Get(n int) []float32 {
	if ws == nil {
		return make([]float32, n)
	}
	class := sizeClass(n)
	bin := ws.free[class]
	var buf []float32
	if len(bin) > 0 {
		buf = bin[len(bin)-1]
		ws.free[class] = bin[:len(bin)-1]
	} else {
		buf = make([]float32, 1<<class)
	}
	ws.live = append(ws.live, wsBuf{buf: buf, class: class})
	return buf[:n]
}

// GetZeroed is Get plus an explicit zero fill, for kernels that
// accumulate into their scratch.
func (ws *Workspace) GetZeroed(n int) []float32 {
	s := ws.Get(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// Tensor returns a workspace-backed tensor of the given shape with dirty
// contents. The Tensor header itself is recycled too, so steady-state
// passes allocate neither data nor headers.
func (ws *Workspace) Tensor(shape ...int) *Tensor {
	if ws == nil {
		// Copy before calling New: New retains (and may format) its
		// argument, and passing shape straight through would make every
		// caller's variadic slice escape — even on the arena path.
		return New(append([]int(nil), shape...)...)
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Static message: formatting shape here would make the
			// variadic slice escape and defeat the zero-alloc path.
			panic("tensor: negative dimension in workspace Tensor shape")
		}
		n *= d
	}
	t := ws.header()
	t.shape = append(t.shape[:0], shape...)
	t.data = ws.Get(n)
	return t
}

// ZeroTensor is Tensor with a zero fill.
func (ws *Workspace) ZeroTensor(shape ...int) *Tensor {
	t := ws.Tensor(shape...)
	t.Zero()
	return t
}

// View wraps an existing data slice in a recycled header with the given
// shape — the workspace analogue of FromSlice/Reshape, used where a
// layer only reinterprets its input (Flatten) and must not trigger even
// a header allocation.
func (ws *Workspace) View(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		// Static message keeps the shape slice from escaping (see Tensor).
		panic("tensor: workspace View shape does not match data length")
	}
	if ws == nil {
		return FromSlice(data, append([]int(nil), shape...)...) // see Tensor
	}
	t := ws.header()
	t.shape = append(t.shape[:0], shape...)
	t.data = data
	return t
}

func (ws *Workspace) header() *Tensor {
	if ws.used < len(ws.headers) {
		t := ws.headers[ws.used]
		ws.used++
		return t
	}
	t := &Tensor{}
	ws.headers = append(ws.headers, t)
	ws.used++
	return t
}

// Release returns buf — a slice obtained from Get since the last Reset
// and not yet released — to the free lists ahead of the next Reset, so
// a later Get of its size class in the same pass reuses it. The caller
// must not touch buf afterwards. Releasing anything else (a foreign
// slice, or the same buffer twice) panics: it would hand one buffer to
// two owners.
func (ws *Workspace) Release(buf []float32) {
	if ws == nil {
		return
	}
	if cap(buf) > 0 {
		p := &buf[:1][0]
		// Newest first: a released buffer is nearly always one of the
		// last few handed out.
		for i := len(ws.live) - 1; i >= 0; i-- {
			lb := ws.live[i]
			if &lb.buf[0] != p {
				continue
			}
			ws.live = append(ws.live[:i], ws.live[i+1:]...)
			ws.free[lb.class] = append(ws.free[lb.class], lb.buf)
			return
		}
	}
	panic("tensor: Workspace.Release of a buffer that is not live in this workspace")
}

// Reset recycles every buffer and header handed out since the previous
// Reset, invalidating all tensors obtained from the workspace. Call it
// at the top of each inference pass.
func (ws *Workspace) Reset() {
	if ws == nil {
		return
	}
	for _, lb := range ws.live {
		ws.free[lb.class] = append(ws.free[lb.class], lb.buf)
	}
	ws.live = ws.live[:0]
	ws.used = 0
}

// Trim releases free buffers — largest size classes first — until the
// retained footprint is at most maxFloats float32s (best effort: live
// buffers are never touched, so call Reset first to trim everything).
// This is the high-water release for mixed workloads: a workspace grown
// to megatile size during a scan would otherwise pin megatile-class
// buffers forever even when the owner drops back to nominal-size
// inference. Trimmed classes simply re-allocate on next use, so Trim
// trades one transient allocation spike for bounded steady-state memory.
func (ws *Workspace) Trim(maxFloats int) {
	if ws == nil {
		return
	}
	total := ws.Footprint()
	if total <= maxFloats {
		return
	}
	classes := make([]int, 0, len(ws.free))
	for class := range ws.free {
		classes = append(classes, class)
	}
	// Largest classes first: one megatile-sized buffer dwarfs every
	// nominal-size class, so dropping from the top frees the most memory
	// while keeping the hot small classes warm.
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			if classes[j] > classes[i] {
				classes[i], classes[j] = classes[j], classes[i]
			}
		}
	}
	for _, class := range classes {
		bin := ws.free[class]
		for len(bin) > 0 && total > maxFloats {
			total -= cap(bin[len(bin)-1])
			bin[len(bin)-1] = nil
			bin = bin[:len(bin)-1]
		}
		if len(bin) == 0 {
			delete(ws.free, class)
		} else {
			ws.free[class] = bin
		}
		if total <= maxFloats {
			return
		}
	}
}

// Footprint reports the total float32 capacity currently retained by the
// arena (free and live), for diagnostics and the memory-model docs.
func (ws *Workspace) Footprint() int {
	if ws == nil {
		return 0
	}
	total := 0
	for _, bin := range ws.free {
		for _, buf := range bin {
			total += cap(buf)
		}
	}
	for _, lb := range ws.live {
		total += cap(lb.buf)
	}
	return total
}
