package hsd

import (
	"errors"
	"fmt"

	"rhsd/internal/guard"
	"rhsd/internal/layout"
)

// This file is the package's panic-free boundary for inputs read from
// files. The detection kernels keep zero-cost panic contracts (shape
// checks compile to a compare and a static panic, nothing is plumbed
// through the hot loops); the *Checked wrappers validate the inputs a
// caller can plausibly get wrong up front with descriptive errors, then
// run the kernel through guard.Run so any remaining panic — a bug, a
// corrupt model, an unforeseen input — comes back as a *guard.PanicError.
// rhsd-detect loads its checkpoint with LoadChecked and scans the layout
// file it read with DetectLayoutMegatileChecked. rhsd-serve loads with
// LoadChecked too, but parses request bodies with layout.ParseChecked and
// runs every scan inside its own guard.Run boundary.

// ErrBadInput tags validation failures of the checked detection API so
// servers can map them to 4xx responses (errors.Is).
var ErrBadInput = errors.New("invalid detection input")

func badInputf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrBadInput)...)
}

// validateWindow checks a scan request's layout and window.
func validateWindow(l *layout.Layout, window layout.Rect) error {
	if l == nil {
		return badInputf("hsd: nil layout")
	}
	if window.Canon().Empty() {
		return badInputf("hsd: empty scan window %v", window)
	}
	return nil
}

// DetectLayoutMegatileChecked is DetectLayoutMegatile behind the error
// boundary: a nil layout or an empty window returns an
// ErrBadInput-tagged error, and any panic from the scan is converted into
// a *guard.PanicError. Any factor is accepted (the kernel clamps it).
// Valid inputs produce bit-identical results to DetectLayoutMegatile.
func (m *Model) DetectLayoutMegatileChecked(l *layout.Layout, window layout.Rect, factor int) (dets []Detection, err error) {
	if err := validateWindow(l, window); err != nil {
		return nil, err
	}
	if err := guard.Run(func() { dets = m.DetectLayoutMegatile(l, window, factor) }); err != nil {
		return nil, err
	}
	return dets, nil
}

// LoadChecked restores model parameters from a checkpoint like Load, with
// the additional guarantee that a corrupt file can only produce an error,
// never a panic — nn.LoadParams validates every untrusted header field,
// and this boundary catches anything it might still miss.
func (m *Model) LoadChecked(path string) error {
	var inner error
	if err := guard.Run(func() { inner = m.Load(path) }); err != nil {
		return fmt.Errorf("hsd: loading checkpoint %q: %w", path, err)
	}
	if inner != nil {
		return fmt.Errorf("hsd: loading checkpoint %q: %w", path, inner)
	}
	return nil
}
