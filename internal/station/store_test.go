package station

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walBytes frames records exactly as store.append writes them.
func walBytes(recs []walRecord) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, r.kind)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.payload)))
		out = append(out, r.payload...)
	}
	return out
}

// FuzzWALRecover feeds arbitrary bytes to WAL recovery, the station's
// reader of untrusted on-disk input: it must never panic, the valid
// prefix it reports must be exactly the recovered records re-framed, and
// recovering that prefix again must return the same records and the whole
// prefix.
func FuzzWALRecover(f *testing.F) {
	frame := walRecord{kind: walFrame, payload: []byte("CTP2 frame bytes")}
	cut := walRecord{kind: walCut}
	log := walBytes([]walRecord{frame, cut, frame})
	f.Add([]byte{})
	f.Add(log)
	f.Add(log[:len(log)-3])                                  // torn tail
	f.Add(append(append([]byte{}, log...), 'X', 0, 0, 0, 0)) // unknown kind
	f.Add(append(append([]byte{}, log...), walFrame, 0xFF, 0xFF, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, valid, err := recoverWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d of %d bytes", valid, len(data))
		}
		if got := walBytes(recs); string(got) != string(data[:valid]) {
			t.Fatalf("records re-frame to %x, valid prefix is %x", got, data[:valid])
		}
		again := filepath.Join(dir, "wal.again")
		if err := os.WriteFile(again, data[:valid], 0o644); err != nil {
			t.Fatal(err)
		}
		recs2, valid2, err := recoverWAL(again)
		if err != nil {
			t.Fatal(err)
		}
		if valid2 != valid || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("recovery not idempotent: %d records over %d bytes, then %d over %d",
				len(recs), valid, len(recs2), valid2)
		}
	})
}
