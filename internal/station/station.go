// Package station is the long-running base-station service of the Code
// Tomography pipeline: where package fleet simulates one bounded
// measurement campaign and estimates at the end, station ingests CTP2
// trace frames continuously — over real sockets or an in-process bridge —
// reassembles per-mote streams in one receive window, and rolls the
// fleet's samples into estimation epochs. Every epoch seals the receive
// window, folds the recovered durations into per-procedure warm-started
// streaming estimators, and publishes an immutable model snapshot (branch
// probabilities plus the suggested block layout) that a deployment tool
// can fetch over HTTP.
//
// Determinism contract: a snapshot is a pure function of the multiset of
// frames each mote delivered between epoch cuts. There is one receive
// window, and every frame and cut enters it under one lock, so each frame
// lands on one side of each cut. Reassembly is order-insensitive within a
// window (packets key by sequence number), a harvest merges sample counts,
// which commute, and each procedure's estimator runs single-threaded — so
// neither the frame interleaving nor the worker schedule changes a
// snapshot.
//
// Durability: with a data directory configured, every accepted frame and
// every epoch cut is appended to a write-ahead log before it is applied.
// A restarted station replays the log through the same apply and harvest
// code as live ingest and cuts, reproducing the estimator state exactly —
// including a partially-filled epoch in flight when the process died.
package station

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/layout"
	"codetomo/internal/pipeline"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
)

// Config tunes a station. Program is required; every other zero value
// selects the documented default.
type Config struct {
	// Program is the MiniC source of the deployed (instrumented) binary.
	// The station needs it to enumerate path models: Code Tomography
	// estimates from durations alone, but the mapping from durations to
	// branch probabilities is a property of the program.
	Program string
	// Settings is the estimation configuration, shared with Run and
	// RunFleet: the motes' timer prescaler and branch predictor, the
	// estimator, the path-enumeration bound, StaticResolve, the snapshot
	// trust gate (an untrusted procedure is still served, but carries no
	// layout suggestion).
	pipeline.Settings
	// EpochFrames, when positive, cuts an epoch automatically every N
	// accepted frames. Zero means epochs are cut only explicitly
	// (CutEpoch, or POST /v1/epoch).
	EpochFrames int
	// DataDir enables durability: an append-only frame log plus JSON model
	// snapshots under this directory. Empty runs in memory only.
	DataDir string
}

// Validate rejects configurations New cannot honor.
func (c Config) Validate() error {
	if c.Program == "" {
		return errors.New("station: Config.Program is required")
	}
	if err := c.Settings.Validate(); err != nil {
		return fmt.Errorf("station: %w", err)
	}
	if c.EpochFrames < 0 {
		return fmt.Errorf("station: EpochFrames = %d; must be >= 0 (zero disables automatic cuts)", c.EpochFrames)
	}
	return nil
}

// ErrClosed is returned by IngestFrame once Close has begun, and by
// CutEpoch once Close has sealed the final epoch.
var ErrClosed = errors.New("station: server closed")

// ErrRejected wraps frames the station refused at the ingest boundary: a
// failed CRC or mangled framing (a long-running station never trusts
// unchecked bytes off a radio).
var ErrRejected = errors.New("station: frame rejected")

// Server is a running base station.
type Server struct {
	cfg  Config
	prof *compile.Output
	// procs is each branchy procedure's standing state, in CFG order; a
	// snapshot decides a copy.
	procs []pipeline.Outcome
	slot  []int // procedure index → position in procs; -1 unless streamed
	pool  *fleet.Pool

	// mu guards the receive window. Ingest holds it across the WAL append
	// and the apply, a cut across the cut record and the harvest, so every
	// frame lands on the same side of a cut in the log and in memory.
	mu             sync.Mutex
	motes          map[uint16]*trace.Reassembler
	ticks          [][]uint64 // harvest's per-procedure tick buffers
	framesSinceCut int
	closed         atomic.Bool // set under mu; ingest refused from then on

	cutMu sync.Mutex // serializes whole epoch cuts
	done  bool       // under cutMu: the station is closed and cuts fail

	wg    sync.WaitGroup
	cutCh chan struct{} // auto-cut triggers; closed under mu with closed
	store *store        // nil when DataDir is empty

	snapMu sync.RWMutex
	epoch  uint64
	snap   *Snapshot

	m counters
}

// counters is the server's atomic metrics block.
type counters struct {
	frames, corrupt, events, bytes        atomic.Uint64
	dups, lost, recovered, discarded      atomic.Uint64
	lostPartials                          atomic.Uint64
	samples                               atomic.Uint64
	tcpConns, tcpAcks, tcpNaks            atomic.Uint64
	snapshotsWritten, walRecordsRecovered atomic.Uint64
}

// New builds a station, replays its write-ahead log if a data directory
// holds one, and starts the auto-cut loop. The caller owns Close.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Settings = cfg.Settings.WithDefaults()

	prof, err := compile.Build(cfg.Program, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		return nil, fmt.Errorf("station: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		prof:  prof,
		pool:  fleet.NewPool(runtime.GOMAXPROCS(0)),
		motes: make(map[uint16]*trace.Reassembler),
		cutCh: make(chan struct{}, 1),
	}
	s.slot = make([]int, len(prof.CFG.Procs))
	s.ticks = make([][]uint64, len(prof.CFG.Procs))
	for i := range s.slot {
		s.slot[i] = -1
	}
	s.procs = pipeline.Branchy(prof)
	for k := range s.procs {
		// A procedure whose path space cannot be enumerated within bounds
		// (a long-running driver loop, typically) is served permanently
		// untrusted rather than failing the whole station: the batch
		// pipeline defers the same error until the sample gate, which such
		// procedures rarely pass anyway.
		o := &s.procs[k]
		if m, err := s.cfg.Settings.Model(prof, o.Proc.Name); err != nil {
			o.Decision, o.Err = pipeline.NoModel, err
		} else {
			// Nothing is admitted yet, so every snapshot's Decide admits
			// the stream's samples afresh.
			s.cfg.Settings.Stream(o, m)
			o.Decision = pipeline.TooFewSamples
			s.slot[o.Index] = k
		}
	}
	s.snap = s.buildSnapshot() // epoch 0: every procedure untrusted, no data yet

	if cfg.DataDir != "" {
		st, recs, err := openStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		s.store = st
		if err := s.replay(recs); err != nil {
			st.Close()
			return nil, err
		}
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for range s.cutCh {
			// Auto-cut; a concurrent explicit cut may have drained the
			// window already, in which case this seals a (harmless) short
			// epoch of whatever arrived since.
			s.CutEpoch() //nolint:errcheck // cut failure surfaces via /v1/metrics epochs stalling
		}
	}()
	return s, nil
}

// Epoch returns the number of sealed epochs.
func (s *Server) Epoch() uint64 {
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	return s.epoch
}

// apply feeds one decoded frame of size bytes to its mote's reassembler
// and returns the frames accepted since the last cut. Callers hold mu, or
// are replaying the WAL before the station starts.
func (s *Server) apply(p *trace.Packet, size int) int {
	r := s.motes[p.MoteID]
	if r == nil {
		r = trace.NewReassembler(p.MoteID)
		s.motes[p.MoteID] = r
	}
	// Add only fails on a mote-ID mismatch, impossible after keying by ID.
	r.Add(*p) //nolint:errcheck
	s.m.frames.Add(1)
	s.m.events.Add(uint64(len(p.Events)))
	s.m.bytes.Add(uint64(size))
	s.framesSinceCut++
	return s.framesSinceCut
}

// harvest seals the receive window: salvage every mote's exclusive ticks
// into the per-procedure tick buffers and sum the reassembly accounting,
// rebase each stream in place at its next expected sequence so the next
// epoch counts neither the consumed packets nor their redeliveries, and
// count the streamed procedures' ticks (in cycles, indexed like s.procs).
// Callers hold mu, or are replaying the WAL.
func (s *Server) harvest() ([]tomography.SampleCounts, trace.UplinkStats) {
	var st trace.UplinkStats
	for id, r := range s.motes {
		_, rst := r.RecoverTicks(s.ticks)
		st.Add(rst)
		r.Reset(id, r.NextSeq())
	}
	samples := make([]tomography.SampleCounts, len(s.procs))
	for p, ticks := range s.ticks {
		if k := s.slot[p]; k >= 0 {
			for _, t := range ticks {
				samples[k].Add(float64(t)*float64(s.cfg.Settings.TickDiv), 1)
			}
		}
		s.ticks[p] = ticks[:0]
	}
	s.framesSinceCut = 0
	// A trigger still pending counted the frames just harvested; cutting
	// on it would seal a short epoch of whatever arrives next.
	select {
	case <-s.cutCh:
	default:
	}
	return samples, st
}

// IngestFrame accepts one raw CTP2 frame off the wire. Frames that fail
// to decode or fail CRC are counted and rejected with ErrRejected; a
// decodable frame fails with ErrClosed once Close has begun.
func (s *Server) IngestFrame(frame []byte) error {
	var p trace.Packet
	if err := p.UnmarshalBinary(frame); err != nil {
		s.m.corrupt.Add(1)
		return fmt.Errorf("%w: %v", ErrRejected, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.store != nil {
		if err := s.store.appendFrame(frame); err != nil {
			return fmt.Errorf("station: wal: %w", err)
		}
	}
	// At or past the threshold, not only at it: WAL replay can leave the
	// window past it. The buffered send merges repeated triggers.
	if n := s.apply(&p, len(frame)); s.cfg.EpochFrames > 0 && n >= s.cfg.EpochFrames {
		select {
		case s.cutCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// CutEpoch seals the current receive window, folds the harvested
// durations into the streaming estimators, and publishes (and, when
// durable, persists) a new model snapshot. It fails with ErrClosed once
// Close has sealed the final epoch.
func (s *Server) CutEpoch() (*Snapshot, error) {
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	if s.done {
		return nil, ErrClosed
	}
	return s.cut()
}

// cut is CutEpoch under cutMu: log the cut record and harvest the window
// under mu, then estimate and publish outside it, so ingest only waits
// for the harvest.
func (s *Server) cut() (*Snapshot, error) {
	s.mu.Lock()
	if s.store != nil {
		if err := s.store.appendCut(); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("station: wal: %w", err)
		}
	}
	samples, st := s.harvest()
	s.mu.Unlock()
	return s.finishCut(samples, st)
}

// finishCut is the half of an epoch cut that runs outside the window lock,
// shared by the live path and WAL replay: account the harvest, observe one
// histogram per procedure, and publish the snapshot.
func (s *Server) finishCut(samples []tomography.SampleCounts, st trace.UplinkStats) (*Snapshot, error) {
	s.m.dups.Add(uint64(st.PacketsDuplicate))
	s.m.lost.Add(uint64(st.PacketsLost))
	s.m.recovered.Add(uint64(st.InvocationsRecovered))
	s.m.discarded.Add(uint64(st.InvocationsDiscarded))
	s.m.lostPartials.Add(uint64(st.LostPartials))

	var streamed []*pipeline.Outcome
	var batches [][]tomography.SampleCounts
	for k := range s.procs {
		o := &s.procs[k]
		if o.Stream == nil {
			continue // no model to feed
		}
		o.Lost += st.LostPartialsByProc[o.Index]
		if n := samples[k].N(); n > 0 {
			s.m.samples.Add(uint64(n))
			streamed = append(streamed, o)
			batches = append(batches, samples[k:k+1])
		}
	}
	if err := pipeline.ObserveOn(s.pool, streamed, batches); err != nil {
		return nil, fmt.Errorf("station: %w", err)
	}

	s.snapMu.Lock()
	s.epoch++
	snap := s.buildSnapshot()
	s.snap = snap
	s.snapMu.Unlock()
	if s.store != nil {
		if err := s.store.writeSnapshot(snap); err != nil {
			return nil, err
		}
		s.m.snapshotsWritten.Add(1)
	}
	return snap, nil
}

// replay drives recovered WAL records through the live path's apply and
// harvest before the station starts, so the resumed estimator state is
// exactly what the crashed process held, including the partially-filled
// epoch in flight.
func (s *Server) replay(recs []walRecord) error {
	for _, rec := range recs {
		switch rec.kind {
		case walFrame:
			var p trace.Packet
			if err := p.UnmarshalBinary(rec.payload); err != nil {
				// The record passed the WAL's own framing; a frame that no
				// longer decodes means the log was tampered with or the
				// format drifted. Either way the remainder is untrustworthy.
				return fmt.Errorf("station: wal replay: %w", err)
			}
			s.apply(&p, len(rec.payload))
		case walCut:
			if _, err := s.finishCut(s.harvest()); err != nil {
				return err
			}
		}
		s.m.walRecordsRecovered.Add(1)
	}
	return nil
}

// Close drains the station: reject new ingest, seal a final epoch if the
// window holds any frames, and sync the log. It is idempotent.
func (s *Server) Close() error { return s.stop(true) }

// abort is the test hook simulating a crash: stop without the final cut,
// leaving recovery to the next New. A crashed process reports nothing, so
// the log's close error is dropped.
func (s *Server) abort() { _ = s.stop(false) }

// stop shuts the station down. Closing the window and cutCh under mu
// means no auto-cut trigger can race the close; marking the station done
// under cutMu, after the final cut when seal is set, means no cut is in
// flight once stop returns.
func (s *Server) stop(seal bool) error {
	s.mu.Lock()
	if s.closed.Swap(true) {
		s.mu.Unlock()
		return nil
	}
	close(s.cutCh)
	s.mu.Unlock()

	// With ingest refused, only cuts, which cutMu serializes, change the
	// window: an auto-cut that drained it first leaves nothing to seal.
	var err error
	s.cutMu.Lock()
	if seal && s.framesSinceCut > 0 {
		_, err = s.cut()
	}
	s.done = true
	s.cutMu.Unlock()
	s.wg.Wait()
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Snapshot is one epoch's immutable model publication.
type Snapshot struct {
	Epoch uint64      `json:"epoch"`
	Procs []ProcModel `json:"procs"`
}

// ProcModel is one procedure's entry in a snapshot.
type ProcModel struct {
	Proc string `json:"proc"`
	// Samples is the total durations absorbed across all epochs so far.
	Samples int `json:"samples"`
	// Trusted reports the estimate passed the shared trust policy (sample
	// count, coverage, static envelope, and confidence); untrusted
	// procedures carry no layout suggestion.
	Trusted bool `json:"trusted"`
	// Converged reports the streaming estimator's early stop has engaged.
	Converged bool `json:"converged,omitempty"`
	// Rounds is how many epochs re-estimated this procedure.
	Rounds int `json:"rounds,omitempty"`
	// Branches lists the estimated branch-edge probabilities, corrected
	// for power-truncated invocations.
	Branches []Branch `json:"branches,omitempty"`
	// Layout is the suggested block placement (block IDs in emission
	// order), present only for trusted procedures and branchless ones.
	Layout []int `json:"layout,omitempty"`
}

// Branch is one estimated branch edge.
type Branch struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Prob float64 `json:"prob"`
}

// buildSnapshot assembles the current publication. Callers must hold
// snapMu (or be the only goroutine, as during New and replay).
func (s *Server) buildSnapshot() *Snapshot {
	decided := s.decided()
	plan := layout.PlanAll(s.prof.CFG, pipeline.Placement(s.prof.CFG, decided))
	snap := &Snapshot{Epoch: s.epoch}
	for _, p := range s.prof.CFG.Procs {
		pm := ProcModel{Proc: p.Name, Trusted: true} // branchless
		if len(decided) > 0 && decided[0].Proc == p {
			pm = procModel(&decided[0])
			decided = decided[1:]
		}
		if order, ok := plan.Layouts[p.Name]; ok && pm.Trusted {
			pm.Layout = make([]int, len(order))
			for j, b := range order {
				pm.Layout[j] = int(b)
			}
		}
		snap.Procs = append(snap.Procs, pm)
	}
	return snap
}

// decided returns a copy of the standing procedures, each streamed one
// decided on everything it has absorbed so far (pipeline.Decide), so a
// snapshot never writes s.procs.
func (s *Server) decided() []pipeline.Outcome {
	decided := slices.Clone(s.procs)
	for k := range decided {
		if decided[k].Stream != nil {
			s.cfg.Settings.Decide(&decided[k])
		}
	}
	return decided
}

// procModel is one decided procedure's publication. The corrected
// estimate is published whenever there is one, trusted or not.
func procModel(o *pipeline.Outcome) ProcModel {
	pm := ProcModel{Proc: o.Proc.Name, Samples: o.Samples, Trusted: o.Decision == pipeline.Trusted}
	if o.Stream != nil {
		pm.Converged, pm.Rounds = o.Stream.Converged(), o.Stream.Rounds()
	}
	if o.Probs != nil {
		for _, e := range o.Model.BranchEdgeList() {
			pm.Branches = append(pm.Branches, Branch{From: int(e[0]), To: int(e[1]), Prob: o.Probs[e]})
		}
	}
	return pm
}

// Latest returns the most recent snapshot (epoch 0: the empty model).
func (s *Server) Latest() *Snapshot {
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	return s.snap
}

// Metrics is the station's observability block.
type Metrics struct {
	Epoch                uint64 `json:"epoch"`
	FramesAccepted       uint64 `json:"frames_accepted"`
	FramesRejected       uint64 `json:"frames_rejected"`
	EventsDelivered      uint64 `json:"events_delivered"`
	BytesIngested        uint64 `json:"bytes_ingested"`
	PacketsDuplicate     uint64 `json:"packets_duplicate"`
	PacketsLost          uint64 `json:"packets_lost"`
	InvocationsRecovered uint64 `json:"invocations_recovered"`
	InvocationsDiscarded uint64 `json:"invocations_discarded"`
	// InvocationsLostPower counts invocations power-truncated on the mote
	// itself (epoch/power markers), a subset of InvocationsDiscarded.
	InvocationsLostPower uint64 `json:"invocations_lost_power"`
	SamplesAbsorbed      uint64 `json:"samples_absorbed"`
	TCPConns             uint64 `json:"tcp_conns"`
	TCPAcks              uint64 `json:"tcp_acks"`
	TCPNaks              uint64 `json:"tcp_naks"`
	SnapshotsWritten     uint64 `json:"snapshots_written"`
	WALRecordsRecovered  uint64 `json:"wal_records_recovered"`
}

// Metrics returns a point-in-time copy of the counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Epoch:                s.Epoch(),
		FramesAccepted:       s.m.frames.Load(),
		FramesRejected:       s.m.corrupt.Load(),
		EventsDelivered:      s.m.events.Load(),
		BytesIngested:        s.m.bytes.Load(),
		PacketsDuplicate:     s.m.dups.Load(),
		PacketsLost:          s.m.lost.Load(),
		InvocationsRecovered: s.m.recovered.Load(),
		InvocationsDiscarded: s.m.discarded.Load(),
		InvocationsLostPower: s.m.lostPartials.Load(),
		SamplesAbsorbed:      s.m.samples.Load(),
		TCPConns:             s.m.tcpConns.Load(),
		TCPAcks:              s.m.tcpAcks.Load(),
		TCPNaks:              s.m.tcpNaks.Load(),
		SnapshotsWritten:     s.m.snapshotsWritten.Load(),
		WALRecordsRecovered:  s.m.walRecordsRecovered.Load(),
	}
}
