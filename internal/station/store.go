package station

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The durable half of the station: an append-only write-ahead log of
// accepted frames and epoch cuts, plus JSON model snapshots.
//
// WAL record framing: 1 type byte ('F' frame, 'C' cut) | uint32 LE
// payload length | payload. Frames are stored as received off the wire —
// they carry their own CRC, so the log inherits the wire format's
// integrity check. Recovery reads records until the first torn or
// implausible one (a crash mid-append), truncates the file there, and
// replays the survivors; nothing before a torn tail is ever lost because
// records are appended before the frame is applied.

const (
	walFrame = 'F'
	walCut   = 'C'

	walName     = "wal.log"
	latestName  = "latest.json"
	snapshotDir = "snapshots"

	// walMaxPayload bounds a record's claimed length during recovery; the
	// largest legal frame is well under this, so anything bigger is a torn
	// or corrupted header.
	walMaxPayload = 4096
)

type walRecord struct {
	kind    byte
	payload []byte
}

// store is the station's data directory handle.
type store struct {
	dir string

	mu  sync.Mutex
	f   *os.File
	rec []byte // the record being appended, reused across appends
}

// openStore opens (creating if needed) the data directory, recovers the
// WAL's intact prefix, truncates any torn tail, and returns the surviving
// records for replay together with the append handle.
func openStore(dir string) (*store, []walRecord, error) {
	if err := os.MkdirAll(filepath.Join(dir, snapshotDir), 0o755); err != nil {
		return nil, nil, fmt.Errorf("station: %w", err)
	}
	path := filepath.Join(dir, walName)
	recs, valid, err := recoverWAL(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("station: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("station: wal truncate: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("station: %w", err)
	}
	return &store{dir: dir, f: f}, recs, nil
}

// recoverWAL parses the log's intact prefix. A missing file is an empty
// log; a torn tail is expected after a crash and marks the valid length.
func recoverWAL(path string) ([]walRecord, int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("station: %w", err)
	}
	var recs []walRecord
	off := int64(0)
	for int64(len(data))-off >= 5 {
		kind := data[off]
		n := int64(binary.LittleEndian.Uint32(data[off+1:]))
		if (kind != walFrame && kind != walCut) || n > walMaxPayload || off+5+n > int64(len(data)) {
			break
		}
		recs = append(recs, walRecord{kind: kind, payload: data[off+5 : off+5+n : off+5+n]})
		off += 5 + n
	}
	return recs, off, nil
}

func (st *store) append(kind byte, payload []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.rec = append(st.rec[:0], kind)
	st.rec = binary.LittleEndian.AppendUint32(st.rec, uint32(len(payload)))
	st.rec = append(st.rec, payload...)
	_, err := st.f.Write(st.rec)
	return err
}

func (st *store) appendFrame(frame []byte) error { return st.append(walFrame, frame) }
func (st *store) appendCut() error               { return st.append(walCut, nil) }

// writeSnapshot persists one epoch's model publication: an immutable
// per-epoch file plus an atomically-replaced latest.json.
func (st *store) writeSnapshot(snap *Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("station: %w", err)
	}
	data = append(data, '\n')
	name := filepath.Join(st.dir, snapshotDir, fmt.Sprintf("epoch-%06d.json", snap.Epoch))
	if err := os.WriteFile(name, data, 0o644); err != nil {
		return fmt.Errorf("station: %w", err)
	}
	tmp := filepath.Join(st.dir, latestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("station: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, latestName)); err != nil {
		return fmt.Errorf("station: %w", err)
	}
	return nil
}

// Close syncs and releases the log.
func (st *store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Sync()
	if cerr := st.f.Close(); err == nil {
		err = cerr
	}
	st.f = nil
	return err
}
