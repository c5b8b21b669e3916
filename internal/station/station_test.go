package station_test

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/mote"
	"codetomo/internal/station"
)

// workProc is the one branchy procedure both test programs stream.
const workProc = `
func work(v int) int {
	var r int;
	r = 0;
	if (v > 500) {
		r = r + v % 13;
	}
	return r;
}
`

const testProgram = workProc + `
func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 200; i = i + 1) {
		acc = acc + work(sense());
	}
	debug(acc);
}`

// shortProgram calls work three times and returns: each of its motes
// delivers one frame holding every invocation whole, so no epoch cut can
// split one.
const shortProgram = workProc + `
func main() {
	debug(work(sense()) + work(sense()) + work(sense()));
}`

// simulateFleet runs a small deployment of testProgram and returns the
// per-mote results with their uploads kept (frames as the channel
// delivered them). Pure function of motes, so every test sees the
// identical traffic.
func simulateFleet(t testing.TB, motes int) []fleet.MoteResult {
	t.Helper()
	return simulateProgram(t, testProgram, motes)
}

func simulateProgram(t testing.TB, src string, motes int) []fleet.MoteResult {
	t.Helper()
	prof, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]fleet.MoteSpec, motes)
	for i := range specs {
		specs[i] = fleet.MoteSpec{
			ID:               uint16(i),
			Workload:         "gaussian",
			Seed:             1 + int64(i)*7919,
			ClockOffsetTicks: uint64(i) * 1000,
		}
	}
	mc := mote.DefaultConfig()
	mc.TickDiv = 8
	uploads, _, err := fleet.SimulateStream(fleet.SimConfig{
		Prog:       prof.Code,
		Mote:       mc,
		MaxCycles:  2_000_000_000,
		Workers:    2,
		Link:       fleet.LinkConfig{EventsPerPacket: 16, Seed: 99},
		KeepUpload: true,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	return uploads
}

func newStation(t testing.TB, cfg station.Config) *station.Server {
	t.Helper()
	if cfg.Program == "" {
		cfg.Program = testProgram
	}
	s, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// splitFrames cuts each mote's delivery in half: the two epoch windows
// every determinism test feeds.
func splitFrames(uploads []fleet.MoteResult) (first, second [][][]byte) {
	first = make([][][]byte, len(uploads))
	second = make([][][]byte, len(uploads))
	for i, up := range uploads {
		mid := len(up.Frames) / 2
		first[i] = up.Frames[:mid]
		second[i] = up.Frames[mid:]
	}
	return first, second
}

// ingestUploads feeds every mote's delivery through IngestFrame, in mote
// order.
func ingestUploads(t testing.TB, s *station.Server, uploads []fleet.MoteResult) {
	t.Helper()
	for _, up := range uploads {
		for _, f := range up.Frames {
			if err := s.IngestFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func ingestAll(t *testing.T, s *station.Server, perMote [][][]byte, interleave bool) {
	t.Helper()
	if !interleave {
		for _, frames := range perMote {
			for _, f := range frames {
				if err := s.IngestFrame(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}
	// Round-robin across motes, highest mote first: a maximally different
	// arrival order from the serial feed.
	for i := 0; ; i++ {
		sent := false
		for m := len(perMote) - 1; m >= 0; m-- {
			if i < len(perMote[m]) {
				if err := s.IngestFrame(perMote[m][i]); err != nil {
					t.Fatal(err)
				}
				sent = true
			}
		}
		if !sent {
			return
		}
	}
}

// Epoch snapshots must be a pure function of the frame multiset per
// window: serial ingest and interleaved, reversed ingest must publish
// identical models, epoch for epoch.
func TestIngestOrderInvariant(t *testing.T) {
	uploads := simulateFleet(t, 4)
	first, second := splitFrames(uploads)

	run := func(interleave bool) []*station.Snapshot {
		s := newStation(t, station.Config{})
		defer s.Close()
		var snaps []*station.Snapshot
		for _, window := range [][][][]byte{first, second} {
			ingestAll(t, s, window, interleave)
			snap, err := s.CutEpoch()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
		}
		return snaps
	}

	serial := run(false)
	interleaved := run(true)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], interleaved[i]) {
			a, _ := json.Marshal(serial[i])
			b, _ := json.Marshal(interleaved[i])
			t.Fatalf("epoch %d diverged between serial and interleaved ingest:\n%s\n%s", i+1, a, b)
		}
	}
	// The data must actually carry signal: work has 800 fleet samples and
	// should be a trusted, layout-bearing model by epoch 2.
	var work *station.ProcModel
	for i := range serial[1].Procs {
		if serial[1].Procs[i].Proc == "work" {
			work = &serial[1].Procs[i]
		}
	}
	if work == nil || !work.Trusted || len(work.Layout) == 0 || len(work.Branches) == 0 {
		t.Fatalf("work model not trusted after two epochs: %+v", work)
	}
}

// A station that crashes mid-epoch must resume from its WAL with the
// open window intact: finishing the epoch after restart yields the same
// snapshot as never having crashed.
func TestCrashMidEpochResumesWarm(t *testing.T) {
	uploads := simulateFleet(t, 4)
	first, second := splitFrames(uploads)
	cfg := func(dir string) station.Config {
		return station.Config{DataDir: dir}
	}

	// Uninterrupted reference run.
	ref := newStation(t, cfg(t.TempDir()))
	ingestAll(t, ref, first, false)
	if _, err := ref.CutEpoch(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ref, second, false)
	want, err := ref.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Crashing run: epoch 1 sealed, epoch 2 half-filled, then the process
	// dies without flushing.
	dir := t.TempDir()
	s1 := newStation(t, cfg(dir))
	ingestAll(t, s1, first, false)
	if _, err := s1.CutEpoch(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s1, second[:2], false)
	s1.Abort()

	// Restart replays the WAL; the open window resumes where it stopped.
	s2 := newStation(t, cfg(dir))
	defer s2.Close()
	if got := s2.Epoch(); got != 1 {
		t.Fatalf("epoch after replay = %d, want 1", got)
	}
	ingestAll(t, s2, second[2:], false)
	got, err := s2.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		t.Fatalf("resumed epoch 2 differs from uninterrupted run:\ngot  %s\nwant %s", a, b)
	}
	if rec := s2.Metrics().WALRecordsRecovered; rec == 0 {
		t.Fatal("restart recovered no WAL records")
	}
}

// A torn trailing WAL record — the crash happened mid-append — must be
// truncated away, not poison recovery.
func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	uploads := simulateFleet(t, 2)
	s1 := newStation(t, station.Config{DataDir: dir})
	for _, up := range uploads {
		for _, f := range up.Frames {
			if err := s1.IngestFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s1.CutEpoch(); err != nil {
		t.Fatal(err)
	}
	s1.Abort()

	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{'F', 0xff, 0xff}); err != nil { // torn header
		t.Fatal(err)
	}
	f.Close()

	s2 := newStation(t, station.Config{DataDir: dir})
	defer s2.Close()
	if got := s2.Epoch(); got != 1 {
		t.Fatalf("epoch after torn-tail recovery = %d, want 1", got)
	}
}

// The TCP ingest must ACK good frames, NAK damaged ones, and survive a
// client that retransmits on NAK.
func TestServeTCPAckNak(t *testing.T) {
	uploads := simulateFleet(t, 2)
	s := newStation(t, station.Config{})
	defer s.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.ServeTCP(l)

	var frames [][]byte
	for _, up := range uploads {
		frames = append(frames, up.Frames...)
	}
	// Damage one frame's CRC: every transmission of it will NAK.
	bad := append([]byte(nil), frames[0]...)
	bad[len(bad)-1] ^= 0xff
	frames = append(frames, bad)

	st, err := station.PushFrames(l.Addr().String(), frames, station.PushConfig{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Acked != len(frames)-1 || st.Failed != 1 {
		t.Fatalf("push stats %+v, want %d acked and 1 failed", st, len(frames)-1)
	}
	if st.Retransmissions != 2 {
		t.Fatalf("Retransmissions = %d, want 2 (retry budget on the damaged frame)", st.Retransmissions)
	}
	m := s.Metrics()
	if m.FramesAccepted != uint64(len(frames)-1) || m.FramesRejected != 3 || m.TCPNaks != 3 {
		t.Fatalf("metrics %+v, want %d accepted, 3 rejected, 3 naks", m, len(frames)-1)
	}
	snap, err := s.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", snap.Epoch)
	}
}

// The HTTP surface: health, models, per-procedure lookup, metrics, and
// the explicit epoch cut.
func TestHTTPAPI(t *testing.T) {
	uploads := simulateFleet(t, 4)
	s := newStation(t, station.Config{})
	defer s.Close()
	ingestUploads(t, s, uploads)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/epoch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap station.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Epoch != 1 || len(snap.Procs) == 0 {
		t.Fatalf("POST /v1/epoch returned %+v", snap)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Epoch != 1 {
		t.Fatalf("/healthz = %+v", health)
	}

	resp, err = http.Get(srv.URL + "/v1/models/work")
	if err != nil {
		t.Fatal(err)
	}
	var one struct {
		Epoch uint64            `json:"epoch"`
		Model station.ProcModel `json:"model"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if one.Model.Proc != "work" || one.Model.Samples == 0 {
		t.Fatalf("/v1/models/work = %+v", one)
	}

	resp, err = http.Get(srv.URL + "/v1/models/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown procedure returned %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m station.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.FramesAccepted == 0 || m.Epoch != 1 {
		t.Fatalf("/v1/metrics = %+v", m)
	}
}

// EpochFrames cuts epochs automatically as traffic accumulates.
func TestAutoEpochCut(t *testing.T) {
	uploads := simulateFleet(t, 2)
	s := newStation(t, station.Config{EpochFrames: 8})
	defer s.Close()
	ingestUploads(t, s, uploads)
	deadline := time.Now().Add(5 * time.Second)
	for s.Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic epoch cut after ingest")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A restart whose WAL replay leaves the open window at or past
// EpochFrames must still cut automatically on the next frames.
func TestAutoCutAfterReplay(t *testing.T) {
	var frames [][]byte
	for _, up := range simulateFleet(t, 2) {
		frames = append(frames, up.Frames...)
	}
	if len(frames) < 16 {
		t.Fatalf("%d frames, want at least 16", len(frames))
	}
	dir := t.TempDir()
	s1 := newStation(t, station.Config{DataDir: dir})
	ingestAll(t, s1, [][][]byte{frames[:8]}, false)
	s1.Abort()

	s2 := newStation(t, station.Config{DataDir: dir, EpochFrames: 8})
	defer s2.Close()
	ingestAll(t, s2, [][][]byte{frames[8:]}, false)
	deadline := time.Now().Add(5 * time.Second)
	for s2.Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic epoch cut after replaying a full window")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Ingest from several goroutines, automatic and explicit cuts, and Close
// share one window: no frame may be lost or applied twice, and once Close
// returns no cut is in flight and both ingest and cuts fail. Each mote
// delivers one self-contained frame, so wherever the cuts fall, the
// samples absorbed across epochs must equal a serial run's.
func TestConcurrentIngestAndClose(t *testing.T) {
	uploads := simulateProgram(t, shortProgram, 64)
	var frames [][]byte
	for _, up := range uploads {
		frames = append(frames, up.Frames...)
	}
	if len(frames) != len(uploads) {
		t.Fatalf("%d frames from %d motes, want one each", len(frames), len(uploads))
	}

	serial := newStation(t, station.Config{Program: shortProgram})
	ingestUploads(t, serial, uploads)
	if err := serial.Close(); err != nil {
		t.Fatal(err)
	}
	want := serial.Metrics().SamplesAbsorbed
	if want == 0 {
		t.Fatal("serial run absorbed no samples")
	}

	s := newStation(t, station.Config{Program: shortProgram, EpochFrames: 8})
	const workers = 4
	errs := make(chan error, workers+1)
	var ingest sync.WaitGroup
	for w := 0; w < workers; w++ {
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			for i := w; i < len(frames); i += workers {
				if err := s.IngestFrame(frames[i]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	cutter := make(chan struct{})
	go func() { // explicit cuts until Close ends them
		defer close(cutter)
		for {
			if _, err := s.CutEpoch(); err != nil {
				if !errors.Is(err, station.ErrClosed) {
					errs <- err
				}
				return
			}
		}
	}()
	ingest.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cutter:
	case <-time.After(10 * time.Second):
		t.Fatal("CutEpoch still succeeds after Close returned")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := s.Metrics()
	if m.FramesAccepted != uint64(len(frames)) {
		t.Fatalf("FramesAccepted = %d, want %d", m.FramesAccepted, len(frames))
	}
	if m.SamplesAbsorbed != want {
		t.Fatalf("SamplesAbsorbed = %d over %d epochs, want the serial run's %d", m.SamplesAbsorbed, m.Epoch, want)
	}
	if err := s.IngestFrame(frames[0]); !errors.Is(err, station.ErrClosed) {
		t.Fatalf("ingest after Close = %v, want ErrClosed", err)
	}
	if _, err := s.CutEpoch(); !errors.Is(err, station.ErrClosed) {
		t.Fatalf("cut after Close = %v, want ErrClosed", err)
	}
}

// Close seals the open window (flushing a final snapshot when durable)
// and rejects further ingest.
func TestCloseFlushesFinalEpoch(t *testing.T) {
	dir := t.TempDir()
	uploads := simulateFleet(t, 2)
	s := newStation(t, station.Config{DataDir: dir})
	ingestUploads(t, s, uploads)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestFrame(uploads[0].Frames[0]); err != station.ErrClosed {
		t.Fatalf("ingest after close = %v, want ErrClosed", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "latest.json"))
	if err != nil {
		t.Fatalf("no final snapshot on disk: %v", err)
	}
	var snap station.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 {
		t.Fatalf("final snapshot epoch = %d, want 1", snap.Epoch)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
}

// Rejected inputs at the ingest boundary: garbage, truncation, and a
// frame in the retired checksum-less CTP1 format.
func TestIngestRejects(t *testing.T) {
	uploads := simulateFleet(t, 1)
	s := newStation(t, station.Config{})
	defer s.Close()

	// CTP1: magic | mote 0 | seq 0 | 0 records, no CRC trailer.
	lf := append([]byte("CTP1"), make([]byte, 8)...)
	for _, bad := range [][]byte{nil, []byte("CTTX"), uploads[0].Frames[0][:5], lf} {
		if err := s.IngestFrame(bad); err == nil {
			t.Fatalf("frame %q accepted, want rejection", bad)
		}
	}
	if got := s.Metrics().FramesRejected; got != 4 {
		t.Fatalf("FramesRejected = %d, want 4", got)
	}
}

// A station that accepts the TCP connection but never answers must not
// hang the client: the push session aborts with ErrAckTimeout once the
// configured ACK deadline expires.
func TestPushAckTimeout(t *testing.T) {
	uploads := simulateFleet(t, 1)
	frames := uploads[0].Frames
	if len(frames) == 0 {
		t.Fatal("fleet produced no frames")
	}

	// A black hole: accept connections, drain bytes, never ACK.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()

	start := time.Now()
	_, err = station.PushFrames(l.Addr().String(), frames, station.PushConfig{
		Retries:    2,
		AckTimeout: 150 * time.Millisecond,
	})
	if !errors.Is(err, station.ErrAckTimeout) {
		t.Fatalf("PushFrames error = %v, want ErrAckTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("push took %v; the deadline did not bound the wait", elapsed)
	}
}

// A lossy uplink drops and duplicates frames. The epoch snapshot must be
// a pure function of the accepted frame multiset: a station fed a lossy,
// duplicated stream publishes the same models as one fed the surviving
// distinct frames exactly once, and the duplicates surface in the metrics
// instead of double-feeding the reassemblers.
func TestIngestDropDuplicate(t *testing.T) {
	uploads := simulateFleet(t, 2)
	var frames [][]byte
	for _, up := range uploads {
		frames = append(frames, up.Frames...)
	}

	// Deterministic channel: every 7th frame is dropped, every 5th of the
	// survivors is delivered twice.
	var distinct, delivered [][]byte
	for i, f := range frames {
		if i%7 == 3 {
			continue // dropped in flight
		}
		distinct = append(distinct, f)
		delivered = append(delivered, f)
		if i%5 == 0 {
			delivered = append(delivered, f) // duplicated in flight
		}
	}
	if len(distinct) == len(frames) || len(delivered) == len(distinct) {
		t.Fatalf("channel model degenerate: %d frames, %d distinct, %d delivered",
			len(frames), len(distinct), len(delivered))
	}

	lossy := newStation(t, station.Config{})
	defer lossy.Close()
	for _, f := range delivered {
		if err := lossy.IngestFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	lossySnap, err := lossy.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}

	ref := newStation(t, station.Config{})
	defer ref.Close()
	for _, f := range distinct {
		if err := ref.IngestFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	refSnap, err := ref.CutEpoch()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(lossySnap, refSnap) {
		a, _ := json.Marshal(lossySnap)
		b, _ := json.Marshal(refSnap)
		t.Fatalf("lossy snapshot diverged from distinct-once reference:\n%s\n%s", a, b)
	}
	m := lossy.Metrics()
	if m.PacketsDuplicate == 0 {
		t.Fatal("duplicated frames were not counted as duplicate packets")
	}
	if m.PacketsLost == 0 {
		t.Fatal("dropped frames were not counted as lost packets")
	}
}
