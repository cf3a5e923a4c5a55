package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"rhsd/internal/tensor"
)

// ckptParams builds a small fixed parameter set whose values cover the
// float32 corners a checkpoint must round-trip bit-exactly: NaN with a
// payload, ±Inf, negative zero, and a denormal.
func ckptParams() []*Param {
	w := &Param{Name: "conv.w", W: tensor.New(2, 3), Grad: tensor.New(2, 3)}
	b := &Param{Name: "conv.b", W: tensor.New(4), Grad: tensor.New(4)}
	vals := []float32{
		1.5, -2.25,
		math.Float32frombits(0x7fc00abc), // NaN, nonzero payload
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x80000000), // -0
	}
	copy(w.W.Data(), vals)
	copy(b.W.Data(), []float32{0, math.Float32frombits(1), 3, -4}) // denormal
	return []*Param{w, b}
}

// freshLike returns zero-valued params with the same names/shapes.
func freshLike(src []*Param) []*Param {
	out := make([]*Param, len(src))
	for i, p := range src {
		out[i] = &Param{
			Name: p.Name,
			W:    tensor.New(p.W.Shape()...),
			Grad: tensor.New(p.W.Shape()...),
		}
	}
	return out
}

func validCheckpoint(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveParams(&buf, ckptParams()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTripBitExact(t *testing.T) {
	src := ckptParams()
	dst := freshLike(src)
	if err := LoadParams(bytes.NewReader(validCheckpoint(t)), dst); err != nil {
		t.Fatal(err)
	}
	for i, p := range src {
		for j, v := range p.W.Data() {
			got := dst[i].W.Data()[j]
			if math.Float32bits(v) != math.Float32bits(got) {
				t.Fatalf("param %q value %d: %x round-tripped to %x",
					p.Name, j, math.Float32bits(v), math.Float32bits(got))
			}
		}
	}
}

// TestCheckpointTruncation loads every proper prefix of a valid
// checkpoint — truncation at every field boundary and mid-field — and
// requires a non-nil error (and, implicitly, no panic) for each.
func TestCheckpointTruncation(t *testing.T) {
	valid := validCheckpoint(t)
	for n := 0; n < len(valid); n++ {
		if err := LoadParams(bytes.NewReader(valid[:n]), freshLike(ckptParams())); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded without error", n, len(valid))
		}
	}
}

// put32 overwrites a little-endian uint32 at off.
func put32(b []byte, off int, v uint32) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

func TestCheckpointCorruption(t *testing.T) {
	valid := validCheckpoint(t)
	// Offsets in the stream written by SaveParams for ckptParams:
	// magic(9) count(4) | namelen(4) "conv.w"(6) rank(4) dims(2×4) data…
	const (
		countOff   = 9
		nameLenOff = countOff + 4
		rankOff    = nameLenOff + 4 + len("conv.w")
		dim0Off    = rankOff + 4
		dim1Off    = dim0Off + 4
	)
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"bad magic", append([]byte{'X'}, valid[1:]...), "magic"},
		{"huge param count", put32(valid, countOff, 1<<31), "params"},
		{"huge name length", put32(valid, nameLenOff, 0xffffffff), "string length"},
		{"huge rank", put32(valid, rankOff, 0xffffffff), "rank"},
		{"zero dim", put32(valid, dim0Off, 0), "out of range"},
		{"huge dim", put32(valid, dim0Off, 0xffffffff), "out of range"},
		{"volume overflow", put32(put32(valid, dim0Off, 1<<20), dim1Off, 1<<20), "volume"},
		{"shape mismatch", put32(put32(valid, dim0Off, 3), dim1Off, 2), "incompatible"},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xde, 0xad), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LoadParams(bytes.NewReader(tc.data), freshLike(ckptParams()))
			if err == nil {
				t.Fatalf("corrupt checkpoint loaded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckpointNameMismatch(t *testing.T) {
	params := ckptParams()
	params[0].Name = "renamed.w"
	err := LoadParams(bytes.NewReader(validCheckpoint(t)), params)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("name mismatch error = %v", err)
	}
}
