// Package trace turns the mote's raw TRACE-event log into per-procedure
// duration samples — the only measurement channel Code Tomography is
// allowed to use. An instrumented binary logs (id, tick) at every procedure
// entry and return; this package reconstructs the call tree from the log
// and computes each invocation's gross and exclusive (callee-subtracted)
// duration in timer ticks.
package trace

import (
	"errors"
	"fmt"

	"codetomo/internal/mote"
)

// ErrMalformed is returned when the event log cannot be a well-nested
// execution (mismatched enter/exit ids, or an exit before its enter).
var ErrMalformed = errors.New("trace: malformed event log")

// EnterID and ExitID are the TRACE operand encodings used by the compiler:
// procedure k logs 2k on entry and 2k+1 on return.
func EnterID(procIndex int) int32 { return int32(procIndex * 2) }

// ExitID returns the TRACE operand a procedure logs on return.
func ExitID(procIndex int) int32 { return int32(procIndex*2 + 1) }

// Interval is one reconstructed procedure invocation.
type Interval struct {
	// ProcIndex identifies the procedure (compiler's proc index).
	ProcIndex int
	// EnterTick and ExitTick are the boundary timer readings.
	EnterTick, ExitTick uint64
	// ChildTicks is the summed gross duration of direct callees.
	ChildTicks uint64
	// Depth is the call nesting depth (0 = outermost traced frame).
	Depth int
}

// GrossTicks is the wall duration including callees.
func (iv Interval) GrossTicks() uint64 { return iv.ExitTick - iv.EnterTick }

// ExclusiveTicks is the duration with direct callees' gross time removed —
// the quantity whose distribution the tomography estimator inverts.
// Quantization can make the sum of child ticks exceed the parent reading
// by a tick, so it clamps at zero rather than underflow.
func (iv Interval) ExclusiveTicks() uint64 {
	return iv.GrossTicks() - min(iv.ChildTicks, iv.GrossTicks())
}

// Extract reconstructs invocation intervals, in completion order, from a
// whole TRACE log: the salvager's pairing, epoch and power markers
// included, run as one strict run. The instrumentation nests events
// properly with time running forwards, so any event the salvager counts
// as malformed, or a frame still open at the end, returns ErrMalformed.
func Extract(events []mote.TraceEvent) ([]Interval, error) {
	// Every interval takes an enter and an exit event.
	sv := salvager{out: make([]Interval, 0, len(events)/2)}
	sv.feed(events)
	if sv.malformed > 0 || len(sv.stack) > 0 {
		return nil, fmt.Errorf("%w: %d unbalanced, negative-id or backwards-clock event(s), %d frame(s) still open at end of log",
			ErrMalformed, sv.malformed, len(sv.stack))
	}
	if len(sv.out) == 0 {
		return nil, nil // no intervals stays a nil slice, presized or not
	}
	return sv.out, nil
}

// ExclusiveByProc groups exclusive durations (in ticks) by procedure index.
func ExclusiveByProc(ivs []Interval) map[int][]uint64 {
	out := make(map[int][]uint64)
	for _, iv := range ivs {
		out[iv.ProcIndex] = append(out[iv.ProcIndex], iv.ExclusiveTicks())
	}
	return out
}

// DurationsCycles converts tick durations to cycle units (the center of the
// quantization cell), for feeding estimators that work in cycles.
func DurationsCycles(ticks []uint64, tickDiv int) []float64 {
	out := make([]float64, len(ticks))
	for i, t := range ticks {
		out[i] = float64(t) * float64(tickDiv)
	}
	return out
}
