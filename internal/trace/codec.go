package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"codetomo/internal/mote"
)

// The on-disk trace format models what a mote deployment uploads for
// offline decoding: a small header followed by fixed-width little-endian
// records. Version 1 records are (id int32, tick uint64).
var traceMagic = [4]byte{'C', 'T', 'T', '1'}

// ErrBadTraceFile is returned when decoding input that is not a trace file.
var ErrBadTraceFile = errors.New("trace: not a trace file")

// WriteEvents serializes a trace event log.
func WriteEvents(w io.Writer, events []mote.TraceEvent) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(events))); err != nil {
		return err
	}
	for _, ev := range events {
		if err := binary.Write(bw, binary.LittleEndian, ev.ID); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, ev.Tick); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEvents deserializes a trace event log written by WriteEvents.
func ReadEvents(r io.Reader) ([]mote.TraceEvent, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTraceFile, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadTraceFile, magic[:])
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadTraceFile)
	}
	const maxEvents = 1 << 26 // 64M events ≈ 768 MB; reject absurd headers
	if n > maxEvents {
		return nil, fmt.Errorf("%w: implausible event count %d", ErrBadTraceFile, n)
	}
	// The count is untrusted until the records arrive: preallocate at most
	// a few thousand and let append grow the rest.
	events := make([]mote.TraceEvent, 0, min(n, 1<<12))
	for i := uint32(0); i < n; i++ {
		var ev mote.TraceEvent
		if err := binary.Read(br, binary.LittleEndian, &ev.ID); err != nil {
			return nil, fmt.Errorf("%w: truncated at record %d", ErrBadTraceFile, i)
		}
		if err := binary.Read(br, binary.LittleEndian, &ev.Tick); err != nil {
			return nil, fmt.Errorf("%w: truncated at record %d", ErrBadTraceFile, i)
		}
		events = append(events, ev)
	}
	// The header promised exactly n records; anything after them means a
	// corrupt or concatenated upload, which must fail loudly rather than be
	// silently truncated.
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTraceFile, err)
		}
		return nil, fmt.Errorf("%w: trailing data after %d records", ErrBadTraceFile, n)
	}
	return events, nil
}
