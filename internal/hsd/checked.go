package hsd

import (
	"errors"
	"fmt"

	"rhsd/internal/guard"
)

// This file holds the package's panic-free boundary for inputs read
// from files. The detection kernels keep zero-cost panic contracts
// (shape checks compile to a compare and a static panic, nothing is
// plumbed through the hot loops); the checked entry points — Scan and
// LoadChecked — validate the inputs a caller can plausibly get wrong up
// front with descriptive errors, then run the kernel through guard.Run
// so any remaining panic — a bug, a corrupt model, an unforeseen input —
// comes back as a *guard.PanicError. rhsd-detect and rhsd-serve load
// their checkpoints with LoadChecked and scan with Scan; rhsd-serve
// parses request bodies with layout.ParseChecked.

// ErrBadInput tags validation failures of the checked detection API so
// servers can map them to 4xx responses (errors.Is).
var ErrBadInput = errors.New("invalid detection input")

func badInputf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrBadInput)...)
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
