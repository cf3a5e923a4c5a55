// Package guard is the repo's panic-to-error boundary. The compute
// kernels (tensor, nn, hsd) keep zero-cost panic contracts on their hot
// paths — shape checks compile to a compare and a static panic, with no
// error plumbing through the inner loops. Long-running callers (the
// rhsd-serve daemon, the *Checked public wrappers) cannot afford a panic
// tearing the process down, so they run kernel entry points through
// guard.Run, which converts any panic into a typed *PanicError carrying
// the recovered value and the goroutine stack captured at the recovery
// point.
//
// The contract is one recover per boundary crossing: internal code never
// recovers, public checked wrappers recover exactly once, and everything
// in between propagates freely — so a stack in a PanicError always points
// at the kernel that raised it. A fan-out to goroutines (the megatile
// scan's workers) runs each under Run and re-panics the first
// *PanicError on its caller's goroutine, where no recover could see the
// original; Run returns such a *PanicError unchanged, so its stack still
// names the kernel that panicked.
package guard

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic recovered at a guard boundary.
type PanicError struct {
	// Value is the value the kernel panicked with.
	Value any
	// Stack is the goroutine stack captured at the recovery point.
	Stack []byte
}

// Error formats the panic value without the stack; callers that want the
// stack for logs read e.Stack explicitly so error strings stay bounded.
func (e *PanicError) Error() string {
	return fmt.Sprintf("recovered panic: %v", e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Run invokes fn and returns nil on normal completion, or a *PanicError
// if fn panicked. A nil-value panic (panic(nil)) is reported too, as Go
// runtimes since 1.21 convert it to a *runtime.PanicNilError. A panic
// with a *PanicError value is returned as it is, its stack unchanged.
func Run(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}
