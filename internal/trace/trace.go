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
// execution (mismatched enter/exit ids).
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
func (iv Interval) ExclusiveTicks() uint64 {
	g := iv.GrossTicks()
	if iv.ChildTicks > g {
		// Quantization can make the sum of child ticks exceed the parent
		// reading by a tick; clamp rather than underflow.
		return 0
	}
	return g - iv.ChildTicks
}

// Extract reconstructs invocation intervals from a TRACE log. Events must
// be properly nested (the instrumentation guarantees this); unbalanced logs
// return ErrMalformed. An epoch marker (mote.EpochMarkID, logged at a
// fault-injected reboot) flushes the frames open at the crash — their
// exits never happened — and well-nested execution resumes after it. A
// power marker (mote.PowerMarkID, logged at a checkpoint restore) dooms
// the frames open across it: the restored mote resumes inside them and
// their exits do arrive, but the span covers the outage, so their
// intervals are suppressed while everything nested after the marker is
// kept. Intervals are returned in completion order.
func Extract(events []mote.TraceEvent) ([]Interval, error) {
	type frame struct {
		proc       int
		enter      uint64
		childTicks uint64
		doomed     bool
	}
	var stack []frame
	var out []Interval
	for i, ev := range events {
		if ev.ID == mote.EpochMarkID {
			stack = stack[:0]
			continue
		}
		if ev.ID == mote.PowerMarkID {
			for j := range stack {
				stack[j].doomed = true
			}
			continue
		}
		if ev.ID < 0 {
			return nil, fmt.Errorf("%w: negative id %d at event %d", ErrMalformed, ev.ID, i)
		}
		proc := int(ev.ID / 2)
		if ev.ID%2 == 0 {
			stack = append(stack, frame{proc: proc, enter: ev.Tick})
			continue
		}
		if len(stack) == 0 {
			return nil, fmt.Errorf("%w: exit for proc %d with empty stack at event %d", ErrMalformed, proc, i)
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.proc != proc {
			return nil, fmt.Errorf("%w: exit for proc %d while proc %d is open at event %d", ErrMalformed, proc, top.proc, i)
		}
		if top.doomed {
			continue // timing spans a power outage: not a duration sample
		}
		iv := Interval{
			ProcIndex:  proc,
			EnterTick:  top.enter,
			ExitTick:   ev.Tick,
			ChildTicks: top.childTicks,
			Depth:      len(stack),
		}
		out = append(out, iv)
		if len(stack) > 0 {
			stack[len(stack)-1].childTicks += iv.GrossTicks()
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("%w: %d frame(s) still open at end of log", ErrMalformed, len(stack))
	}
	return out, nil
}

// ExclusiveByProc groups exclusive durations (in ticks) by procedure index.
func ExclusiveByProc(ivs []Interval) map[int][]uint64 {
	out := make(map[int][]uint64)
	for _, iv := range ivs {
		out[iv.ProcIndex] = append(out[iv.ProcIndex], iv.ExclusiveTicks())
	}
	return out
}

// CyclesByProc groups exclusive durations by procedure index, in cycle
// units as DurationsCycles gives them: ExclusiveByProc and DurationsCycles
// in one pass, the per-stream reduction a base station keeps. Each
// procedure's slice is allocated at its final size (for the small
// procedure indices real programs have; others grow by appending).
func CyclesByProc(ivs []Interval, tickDiv int) map[int][]float64 {
	var counts [64]int
	for _, iv := range ivs {
		if uint(iv.ProcIndex) < uint(len(counts)) {
			counts[iv.ProcIndex]++
		}
	}
	out := make(map[int][]float64)
	for _, iv := range ivs {
		p := iv.ProcIndex
		s, ok := out[p]
		if !ok && uint(p) < uint(len(counts)) {
			s = make([]float64, 0, counts[p])
		}
		out[p] = append(s, float64(iv.ExclusiveTicks())*float64(tickDiv))
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
