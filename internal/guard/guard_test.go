package guard

import (
	"errors"
	"strings"
	"testing"
)

func TestRunNoPanic(t *testing.T) {
	ran := false
	if err := Run(func() { ran = true }); err != nil {
		t.Fatalf("Run returned %v for a clean fn", err)
	}
	if !ran {
		t.Fatal("Run did not invoke fn")
	}
}

func TestRunConvertsPanic(t *testing.T) {
	err := Run(func() { panic("kernel shape mismatch") })
	if err == nil {
		t.Fatal("Run returned nil for a panicking fn")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PanicError", err)
	}
	if pe.Value != "kernel shape mismatch" {
		t.Fatalf("recovered value %v", pe.Value)
	}
	if !strings.Contains(err.Error(), "kernel shape mismatch") {
		t.Fatalf("error string %q does not mention the panic value", err.Error())
	}
	if !strings.Contains(string(pe.Stack), "guard.Run") {
		t.Fatalf("stack does not cover the boundary:\n%s", pe.Stack)
	}
}

func TestRunUnwrapsErrorPanics(t *testing.T) {
	sentinel := errors.New("inner failure")
	err := Run(func() { panic(sentinel) })
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is cannot reach the panicked error through %v", err)
	}
	if pe := (*PanicError)(nil); !errors.As(err, &pe) || pe.Unwrap() != sentinel {
		t.Fatalf("Unwrap did not expose the panicked error")
	}
}

func TestRunNonErrorUnwrapIsNil(t *testing.T) {
	err := Run(func() { panic(42) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PanicError", err)
	}
	if pe.Unwrap() != nil {
		t.Fatalf("Unwrap of a non-error panic value = %v, want nil", pe.Unwrap())
	}
}

func TestRunRuntimePanic(t *testing.T) {
	err := Run(func() {
		var p *int
		_ = *p // nil dereference: a runtime panic, not a kernel panic
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("runtime panic not converted: %v", err)
	}
}

// TestRunReturnsPanicErrorUnchanged re-panics a *PanicError recovered on
// one goroutine through a second Run, as a fan-out does on its caller's
// goroutine: the second Run must return the same error, with the stack
// that names the original panic site.
func TestRunReturnsPanicErrorUnchanged(t *testing.T) {
	inner := make(chan error, 1)
	go func() { inner <- Run(func() { kernelThatPanics() }) }()
	first := <-inner
	err := Run(func() { panic(first) })
	if err != first {
		t.Fatalf("Run wrapped a re-panicked *PanicError: %v", err)
	}
	if !strings.Contains(string(err.(*PanicError).Stack), "kernelThatPanics") {
		t.Fatalf("stack lost the panic site:\n%s", err.(*PanicError).Stack)
	}
}

func kernelThatPanics() { panic("kernel on a worker goroutine") }
