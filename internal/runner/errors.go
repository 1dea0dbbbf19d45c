package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is the cached error of a cell whose compute panicked. The owner
// goroutine recovers the panic, so a wedged or buggy cell fails with a
// diagnostic instead of crashing the process — and, critically, instead of
// leaving its done channel open and deadlocking every later requester.
type PanicError struct {
	Cell   string // the cell's human-readable label
	Reason any    // the recovered panic value
	Stack  []byte // stack of the panicking code (CellStat.Stack reports it)
}

// stackCarrier is a panic value that carries the stack it was raised on: a
// *sim.ProcPanic, a processor body's panic the scheduler re-raised.
type stackCarrier interface{ PanicStack() []byte }

// panicError wraps the panic value r recovered from cell label's code. A
// stackCarrier gives its own stack; any other value gets the recover site's,
// which still holds the panicking frames.
func panicError(label string, r any) *PanicError {
	pe := &PanicError{Cell: label, Reason: r}
	if s, ok := r.(stackCarrier); ok {
		pe.Stack = s.PanicStack()
	} else {
		pe.Stack = debug.Stack()
	}
	return pe
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("cell %s: panic: %v", e.Cell, e.Reason)
}

// Unwrap exposes an error panic value (e.g. a *sim.ProcPanic wrapping a
// *sim.StallError) to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Reason.(error); ok {
		return err
	}
	return nil
}

// FailLabel renders a failed cell for table output: a deterministic, compact
// FAILED(<reason>) annotation. Non-failed cells render their value; failed
// cells render this, so the non-failed bytes of a table never depend on
// which cells failed.
func FailLabel(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded):
		return "FAILED(timeout)"
	case errors.Is(err, context.Canceled):
		return "FAILED(cancelled)"
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("FAILED(panic: %v)", pe.Reason)
	}
	return fmt.Sprintf("FAILED(%v)", err)
}
