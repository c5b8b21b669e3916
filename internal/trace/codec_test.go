package trace

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"codetomo/internal/mote"
)

func TestCodecRoundTrip(t *testing.T) {
	events := []mote.TraceEvent{
		{ID: 0, Tick: 0},
		{ID: 1, Tick: 42},
		{ID: 2, Tick: 1 << 40},
		{ID: 7, Tick: 12345},
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events", len(got))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestCodecEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEvents(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d events from empty log", len(got))
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("X"),
		[]byte("NOPE...."),
		append([]byte("CTT1"), 0xFF, 0xFF, 0xFF, 0xFF), // absurd count
		append([]byte("CTT1"), 2, 0, 0, 0, 1, 2),       // truncated records
		append([]byte("CTT1"), 0, 0, 0, 0, 'x'),        // trailing garbage
	}
	for i, data := range cases {
		if _, err := ReadEvents(bytes.NewReader(data)); !errors.Is(err, ErrBadTraceFile) {
			t.Errorf("case %d: err = %v, want ErrBadTraceFile", i, err)
		}
	}
}

// A header promising the maximum event count with no records behind it
// must fail without first allocating for every promised record.
func TestCodecTruncatedHeaderAllocatesLittle(t *testing.T) {
	data := append([]byte("CTT1"), 0, 0, 0, 4) // 1<<26 events, none present
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEvents(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadTraceFile) {
		t.Fatalf("err = %v, want ErrBadTraceFile", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes for an 8-byte file", got)
	}
}

// A mote upload is exactly one log: concatenated or padded files are
// corrupt and must be rejected, not silently truncated at the declared
// record count.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	events := []mote.TraceEvent{{ID: 0, Tick: 1}, {ID: 1, Tick: 9}}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	concat := append(append([]byte{}, buf.Bytes()...), buf.Bytes()...)
	if _, err := ReadEvents(bytes.NewReader(concat)); !errors.Is(err, ErrBadTraceFile) {
		t.Errorf("concatenated logs: err = %v, want ErrBadTraceFile", err)
	}
	padded := append(append([]byte{}, buf.Bytes()...), 0)
	if _, err := ReadEvents(bytes.NewReader(padded)); !errors.Is(err, ErrBadTraceFile) {
		t.Errorf("padded log: err = %v, want ErrBadTraceFile", err)
	}
	// The pristine log still decodes.
	if got, err := ReadEvents(bytes.NewReader(buf.Bytes())); err != nil || len(got) != 2 {
		t.Errorf("pristine log: got %d events, err = %v", len(got), err)
	}
}

// Property: any event log round-trips exactly.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(ids []int32, ticks []uint64) bool {
		n := len(ids)
		if len(ticks) < n {
			n = len(ticks)
		}
		events := make([]mote.TraceEvent, n)
		for i := 0; i < n; i++ {
			events[i] = mote.TraceEvent{ID: ids[i], Tick: ticks[i]}
		}
		var buf bytes.Buffer
		if err := WriteEvents(&buf, events); err != nil {
			return false
		}
		got, err := ReadEvents(&buf)
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
