package trace

import (
	"errors"
	"reflect"
	"testing"

	"codetomo/internal/mote"
)

func ev(id int32, tick uint64) mote.TraceEvent { return mote.TraceEvent{ID: id, Tick: tick} }

func TestExtractFlat(t *testing.T) {
	ivs, err := Extract([]mote.TraceEvent{
		ev(EnterID(0), 0), ev(ExitID(0), 10),
		ev(EnterID(0), 20), ev(ExitID(0), 35),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[0].GrossTicks() != 10 || ivs[1].GrossTicks() != 15 {
		t.Fatalf("gross = %d/%d", ivs[0].GrossTicks(), ivs[1].GrossTicks())
	}
	if ivs[0].ExclusiveTicks() != 10 {
		t.Fatalf("exclusive = %d", ivs[0].ExclusiveTicks())
	}
}

func TestExtractNested(t *testing.T) {
	// main(1) calls child(0) twice: main [0,100], children [10,20], [30,45].
	ivs, err := Extract([]mote.TraceEvent{
		ev(EnterID(1), 0),
		ev(EnterID(0), 10), ev(ExitID(0), 20),
		ev(EnterID(0), 30), ev(ExitID(0), 45),
		ev(ExitID(1), 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 3 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	// Completion order: child, child, main.
	main := ivs[2]
	if main.ProcIndex != 1 || main.Depth != 0 {
		t.Fatalf("main interval = %+v", main)
	}
	if main.ChildTicks != 25 {
		t.Fatalf("child ticks = %d, want 25", main.ChildTicks)
	}
	if main.ExclusiveTicks() != 75 {
		t.Fatalf("exclusive = %d, want 75", main.ExclusiveTicks())
	}
	if ivs[0].Depth != 1 {
		t.Fatalf("child depth = %d", ivs[0].Depth)
	}
}

func TestExtractRecursion(t *testing.T) {
	// f(0) calls itself once.
	ivs, err := Extract([]mote.TraceEvent{
		ev(EnterID(0), 0),
		ev(EnterID(0), 5), ev(ExitID(0), 15),
		ev(ExitID(0), 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[1].ExclusiveTicks() != 20 {
		t.Fatalf("outer exclusive = %d, want 20", ivs[1].ExclusiveTicks())
	}
}

func TestExtractMalformed(t *testing.T) {
	cases := [][]mote.TraceEvent{
		{ev(ExitID(0), 5)},                    // exit without enter
		{ev(EnterID(0), 0)},                   // unclosed
		{ev(EnterID(0), 0), ev(ExitID(1), 5)}, // mismatched proc
		{ev(-3, 0)},                           // negative id
		{ev(EnterID(0), 0), ev(EnterID(1), 1), ev(ExitID(0), 2)}, // cross-nesting
		{ev(EnterID(0), 10), ev(ExitID(0), 5)},                   // clock ran backwards
	}
	for i, events := range cases {
		if _, err := Extract(events); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: err = %v, want ErrMalformed", i, err)
		}
	}
}

func TestExclusiveClamp(t *testing.T) {
	// Child gross (quantized) can exceed parent's span by a tick; the
	// exclusive time must clamp to zero, not wrap around.
	iv := Interval{EnterTick: 10, ExitTick: 12, ChildTicks: 3}
	if iv.ExclusiveTicks() != 0 {
		t.Fatalf("exclusive = %d, want 0", iv.ExclusiveTicks())
	}
}

func TestExclusiveByProc(t *testing.T) {
	ivs, err := Extract([]mote.TraceEvent{
		ev(EnterID(1), 0),
		ev(EnterID(0), 10), ev(ExitID(0), 20),
		ev(ExitID(1), 50),
		ev(EnterID(0), 60), ev(ExitID(0), 65),
	})
	if err != nil {
		t.Fatal(err)
	}
	by := ExclusiveByProc(ivs)
	if len(by[0]) != 2 || len(by[1]) != 1 {
		t.Fatalf("grouping = %v", by)
	}
	if by[1][0] != 40 {
		t.Fatalf("proc1 exclusive = %d", by[1][0])
	}
}

// TestCyclesByProc pins CyclesByProc to ExclusiveByProc followed by
// DurationsCycles, for dense procedure indices and for ones past its dense
// range, and requires every slice to be full so an append never writes
// into a neighbour's share of the backing array.
func TestCyclesByProc(t *testing.T) {
	var ivs []Interval
	for i, p := range []int{3, 0, 3, 70, 63, 3, 70, 0, 64} {
		ivs = append(ivs, Interval{ProcIndex: p, EnterTick: uint64(i), ExitTick: uint64(3 * i)})
	}
	got := CyclesByProc(ivs, 4)
	want := make(map[int][]float64)
	for p, ticks := range ExclusiveByProc(ivs) {
		want[p] = DurationsCycles(ticks, 4)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CyclesByProc = %v, want %v", got, want)
	}
	for p, s := range got {
		if p < 64 && cap(s) != len(s) {
			t.Errorf("proc %d: cap %d, len %d", p, cap(s), len(s))
		}
	}
	if got := CyclesByProc(nil, 4); len(got) != 0 {
		t.Fatalf("no intervals: %v", got)
	}
}

func TestDurationsCycles(t *testing.T) {
	got := DurationsCycles([]uint64{1, 5}, 8)
	if got[0] != 8 || got[1] != 40 {
		t.Fatalf("cycles = %v", got)
	}
}

// TestExtractPowerMarker: Extract tolerates power markers — frames open
// across a checkpoint restore are structurally balanced (their exits
// arrive after re-execution) but their intervals span the outage, so they
// are suppressed; invocations nested after the marker are kept.
func TestExtractPowerMarker(t *testing.T) {
	ivs, err := Extract([]mote.TraceEvent{
		{ID: EnterID(0), Tick: 1},
		{ID: EnterID(1), Tick: 2},
		{ID: mote.PowerMarkID, Tick: 50},
		{ID: ExitID(1), Tick: 60},                             // doomed
		{ID: EnterID(1), Tick: 61}, {ID: ExitID(1), Tick: 65}, // clean
		{ID: ExitID(0), Tick: 70}, // doomed
	})
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	if len(ivs) != 1 || ivs[0].EnterTick != 61 || ivs[0].ExitTick != 65 {
		t.Fatalf("intervals = %+v, want only the post-restore invocation", ivs)
	}
	// A doomed frame still participates in nesting checks: a mismatched
	// exit remains malformed.
	if _, err := Extract([]mote.TraceEvent{
		{ID: EnterID(0), Tick: 1},
		{ID: mote.PowerMarkID, Tick: 5},
		{ID: ExitID(1), Tick: 9},
	}); err == nil {
		t.Fatal("mismatched exit after power marker accepted")
	}
}
