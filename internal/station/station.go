// Package station is the long-running base-station service of the Code
// Tomography pipeline: where package fleet simulates one bounded
// measurement campaign and estimates at the end, station ingests CTP2
// trace frames continuously — over real sockets or an in-process bridge —
// reassembles per-mote streams on a set of shards, and rolls the fleet's
// samples into estimation epochs. Every epoch seals the receive window,
// folds the recovered durations into per-procedure warm-started streaming
// estimators, and publishes an immutable model snapshot (branch
// probabilities plus the suggested block layout) that a deployment tool
// can fetch over HTTP.
//
// Determinism contract: a snapshot is a pure function of the multiset of
// frames each mote delivered between epoch cuts. Reassembly is
// order-insensitive within a window (packets key by sequence number),
// harvests merge as sample counts, which commute, and each procedure's
// estimator runs single-threaded — so the shard count, the frame
// interleaving, and the worker schedule never change a snapshot.
//
// Durability: with a data directory configured, every accepted frame and
// every epoch cut is appended to a write-ahead log before it is applied.
// A restarted station replays the log through the identical ingest and
// cut code paths, reproducing the estimator state exactly — including a
// partially-filled epoch in flight when the process died.
package station

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"codetomo/internal/compile"
	"codetomo/internal/fleet"
	"codetomo/internal/layout"
	"codetomo/internal/markov"
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
	// Shards is the number of per-mote reassembly shards; motes hash to a
	// shard by ID, and each shard is drained by one worker (default 2).
	Shards int
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

// shardQueueDepth bounds each shard's ingest queue; a full queue applies
// backpressure to the ingest path.
const shardQueueDepth = 256

// Validate rejects configurations New cannot honor.
func (c Config) Validate() error {
	if c.Program == "" {
		return errors.New("station: Config.Program is required")
	}
	if c.Shards < 0 || c.Shards > 256 {
		return fmt.Errorf("station: Shards = %d; must be in [1, 256] (zero selects the default of 2)", c.Shards)
	}
	if err := c.Settings.Validate(); err != nil {
		return fmt.Errorf("station: %w", err)
	}
	if c.EpochFrames < 0 {
		return fmt.Errorf("station: EpochFrames = %d; must be >= 0 (zero disables automatic cuts)", c.EpochFrames)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 2
	}
	c.Settings = c.Settings.WithDefaults()
	return c
}

// ErrClosed is returned by ingest entry points after Close has begun.
var ErrClosed = errors.New("station: server closed")

// ErrRejected wraps frames the station refused at the ingest boundary: a
// failed CRC or mangled framing (a long-running station never trusts
// unchecked bytes off a radio).
var ErrRejected = errors.New("station: frame rejected")

// procState is one procedure's standing estimation state.
type procState struct {
	name   string
	index  int              // trace/meta procedure index
	stream *pipeline.Stream // nil when the path model could not be built
}

// harvested is what one epoch's seal recovered from one shard's motes: the
// exclusive durations of each streamed procedure, in cycles, indexed like
// Server.procs, and the summed reassembly accounting.
type harvested struct {
	samples []tomography.SampleCounts
	stats   trace.UplinkStats
}

type cutReq struct {
	wg  *sync.WaitGroup
	out *harvested // written only by the owning shard worker
}

type shardMsg struct {
	pkt *trace.Packet
	cut *cutReq
}

// shard owns the reassembly state for the motes that hash to it. Only its
// worker goroutine touches motes after Start, which is what makes the
// epoch-cut token a sufficient barrier.
type shard struct {
	ch    chan shardMsg
	motes map[uint16]*trace.Reassembler
}

// Server is a running base station.
type Server struct {
	cfg   Config
	prof  *compile.Output
	procs []*procState // branchy procedures, CFG order
	slot  []int        // procedure index → position in procs; -1 unless streamed
	pool  *fleet.Pool

	// ingestMu is the epoch barrier: ingest holds it shared across
	// WAL-append plus shard enqueue, the cut path holds it exclusively
	// while logging the cut record and enqueueing the seal token on every
	// shard. FIFO queues then guarantee every frame lands on the correct
	// side of the cut on disk and in memory alike.
	ingestMu sync.RWMutex
	cutMu    sync.Mutex // serializes whole epoch cuts
	closed   atomic.Bool
	stopped  atomic.Bool // shard workers gone; cuts impossible

	shards []*shard
	wg     sync.WaitGroup
	cutCh  chan struct{}
	store  *store // nil when DataDir is empty

	snapMu sync.RWMutex
	epoch  uint64
	snap   *Snapshot

	framesSinceCut atomic.Int64
	m              counters
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
// holds one, and starts the shard workers. The caller owns Close.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	prof, err := compile.Build(cfg.Program, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		return nil, fmt.Errorf("station: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		prof:  prof,
		pool:  fleet.NewPool(cfg.Shards + 2),
		cutCh: make(chan struct{}, 1),
	}
	s.slot = make([]int, len(prof.CFG.Procs))
	for _, p := range prof.CFG.Procs {
		s.slot[prof.Meta.ProcByName[p.Name].Index] = -1
		if len(p.BranchBlocks()) == 0 {
			continue
		}
		// A procedure whose path space cannot be enumerated within bounds
		// (a long-running driver loop, typically) is served permanently
		// untrusted rather than failing the whole station: the batch
		// pipeline defers the same error until the sample gate, which such
		// procedures rarely pass anyway.
		ps := &procState{name: p.Name, index: prof.Meta.ProcByName[p.Name].Index}
		if m, err := s.cfg.Settings.Model(prof, p.Name); err == nil {
			ps.stream = s.cfg.Settings.Stream(p.Name, m)
			s.slot[ps.index] = len(s.procs)
		}
		s.procs = append(s.procs, ps)
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{
			ch:    make(chan shardMsg, shardQueueDepth),
			motes: make(map[uint16]*trace.Reassembler),
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

	for _, sh := range s.shards {
		sh := sh
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.shardWorker(sh)
		}()
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

// shardWorker drains one shard: packets feed the per-mote reassemblers,
// cut tokens seal the window and hand the harvest back to the cut path.
func (s *Server) shardWorker(sh *shard) {
	for msg := range sh.ch {
		if msg.cut != nil {
			s.harvest(sh, msg.cut.out)
			msg.cut.wg.Done()
			continue
		}
		s.applyPacket(sh, msg.pkt)
	}
}

func (s *Server) applyPacket(sh *shard, p *trace.Packet) {
	r := sh.motes[p.MoteID]
	if r == nil {
		r = trace.NewReassembler(p.MoteID)
		sh.motes[p.MoteID] = r
	}
	// Add only fails on a mote-ID mismatch, impossible after routing by ID.
	r.Add(*p) //nolint:errcheck
}

// harvest seals one shard's receive window: recover every mote's
// intervals, count the streamed procedures' exclusive durations, and
// rebase each stream at its next expected sequence so the next epoch
// counts neither the consumed packets nor their redeliveries.
func (s *Server) harvest(sh *shard, out *harvested) {
	out.samples = make([]tomography.SampleCounts, len(s.procs))
	for id, r := range sh.motes {
		ivs, st := r.Recover()
		out.stats.Add(st)
		for _, iv := range ivs {
			if p := iv.ProcIndex; uint(p) < uint(len(s.slot)) && s.slot[p] >= 0 {
				out.samples[s.slot[p]].Add(float64(iv.ExclusiveTicks())*float64(s.cfg.Settings.TickDiv), 1)
			}
		}
		sh.motes[id] = trace.NewReassemblerAt(id, r.NextSeq())
	}
}

// IngestFrame accepts one raw CTP2 frame off the wire. Frames that fail
// to decode or fail CRC are counted and rejected with ErrRejected. The
// call blocks when the target shard's queue is full (backpressure), and
// fails with ErrClosed during shutdown.
func (s *Server) IngestFrame(frame []byte) error {
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	var p trace.Packet
	if err := p.UnmarshalBinary(frame); err != nil {
		s.m.corrupt.Add(1)
		return fmt.Errorf("%w: %v", ErrRejected, err)
	}
	if s.store != nil {
		if err := s.store.appendFrame(frame); err != nil {
			return fmt.Errorf("station: wal: %w", err)
		}
	}
	s.shards[int(p.MoteID)%len(s.shards)].ch <- shardMsg{pkt: &p}
	s.m.frames.Add(1)
	s.m.events.Add(uint64(len(p.Events)))
	s.m.bytes.Add(uint64(len(frame)))
	if n := s.framesSinceCut.Add(1); s.cfg.EpochFrames > 0 && n == int64(s.cfg.EpochFrames) {
		select {
		case s.cutCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// CutEpoch seals the current receive window across every shard, folds the
// harvested durations into the streaming estimators, and publishes (and,
// when durable, persists) a new model snapshot.
func (s *Server) CutEpoch() (*Snapshot, error) {
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	if s.stopped.Load() {
		return nil, ErrClosed
	}

	// Barrier: no ingest may be mid-flight while the cut record and the
	// seal tokens are placed, so the frame/cut order in the WAL matches
	// the order the shards observe.
	s.ingestMu.Lock()
	if s.store != nil {
		if err := s.store.appendCut(); err != nil {
			s.ingestMu.Unlock()
			return nil, fmt.Errorf("station: wal: %w", err)
		}
	}
	s.framesSinceCut.Store(0)
	var wg sync.WaitGroup
	results := make([]harvested, len(s.shards))
	for i, sh := range s.shards {
		wg.Add(1)
		sh.ch <- shardMsg{cut: &cutReq{wg: &wg, out: &results[i]}}
	}
	s.ingestMu.Unlock()
	wg.Wait()
	return s.finishCut(results)
}

// finishCut is the sharding-independent half of an epoch cut, shared by
// the live path and WAL replay: merge the shards' harvests (integer sums,
// so shard order cannot show), observe one histogram per procedure, and
// publish the snapshot.
func (s *Server) finishCut(results []harvested) (*Snapshot, error) {
	var st trace.UplinkStats
	merged := make([]tomography.SampleCounts, len(s.procs))
	for _, res := range results {
		st.Add(res.stats)
		for k := range merged {
			merged[k].Merge(res.samples[k])
		}
	}
	s.m.dups.Add(uint64(st.PacketsDuplicate))
	s.m.lost.Add(uint64(st.PacketsLost))
	s.m.recovered.Add(uint64(st.InvocationsRecovered))
	s.m.discarded.Add(uint64(st.InvocationsDiscarded))
	s.m.lostPartials.Add(uint64(st.LostPartials))

	var streams []*pipeline.Stream
	var batches [][]tomography.SampleCounts
	for k, ps := range s.procs {
		if ps.stream == nil {
			continue // no model to feed
		}
		ps.stream.Lost += st.LostPartialsByProc[ps.index]
		if n := merged[k].N(); n > 0 {
			s.m.samples.Add(uint64(n))
			streams = append(streams, ps.stream)
			batches = append(batches, merged[k:k+1])
		}
	}
	if err := pipeline.ObserveOn(s.pool, streams, batches); err != nil {
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

// replay drives recovered WAL records through the identical ingest and cut
// code paths, before the shard workers exist — frames apply inline, cuts
// harvest inline — so the resumed estimator state is exactly what the
// crashed process held, including the partially-filled epoch in flight.
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
			s.applyPacket(s.shards[int(p.MoteID)%len(s.shards)], &p)
			s.m.frames.Add(1)
			s.m.events.Add(uint64(len(p.Events)))
			s.m.bytes.Add(uint64(len(rec.payload)))
			s.framesSinceCut.Add(1)
		case walCut:
			s.framesSinceCut.Store(0)
			results := make([]harvested, len(s.shards))
			for i, sh := range s.shards {
				s.harvest(sh, &results[i])
			}
			if _, err := s.finishCut(results); err != nil {
				return err
			}
		}
		s.m.walRecordsRecovered.Add(1)
	}
	return nil
}

// Close drains the station: reject new ingest, seal a final epoch if the
// window holds any frames, stop the shard workers, and sync the log. It
// is idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// New IngestFrame calls now fail; in-flight ones finish under the
	// shared lock, so a final barrier acquisition proves the queues hold
	// everything that was accepted.
	s.ingestMu.Lock()
	close(s.cutCh)
	s.ingestMu.Unlock()

	var err error
	if s.framesSinceCut.Load() > 0 {
		_, err = s.CutEpoch()
	}
	s.stopShards()
	s.wg.Wait()
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// abort is the test hook simulating a crash: stop everything without the
// final cut or a clean WAL sync, leaving recovery to the next New.
func (s *Server) abort() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.ingestMu.Lock()
	close(s.cutCh)
	s.ingestMu.Unlock()
	s.stopShards()
	s.wg.Wait()
	if s.store != nil {
		s.store.Close() //nolint:errcheck
	}
}

// stopShards closes the shard queues under the cut lock, so an auto-cut
// already past the closed cutCh either finishes its sends first or sees
// stopped and returns ErrClosed, never sending on a closed queue.
func (s *Server) stopShards() {
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	s.stopped.Store(true)
	for _, sh := range s.shards {
		close(sh.ch)
	}
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
	probs := make(map[string]markov.EdgeProbs)
	snap := &Snapshot{Epoch: s.epoch}
	branchy := s.procs // CFG order, like the loop below
	for _, p := range s.prof.CFG.Procs {
		if len(p.BranchBlocks()) == 0 {
			probs[p.Name] = markov.Uniform(p)
			snap.Procs = append(snap.Procs, ProcModel{Proc: p.Name, Trusted: true})
			continue
		}
		pm, est, _ := s.procModel(branchy[0])
		branchy = branchy[1:]
		if pm.Trusted {
			probs[p.Name] = est
		}
		snap.Procs = append(snap.Procs, pm)
	}
	plan := layout.PlanAll(s.prof.CFG, probs)
	for i := range snap.Procs {
		pm := &snap.Procs[i]
		if order, ok := plan.Layouts[pm.Proc]; ok && pm.Trusted {
			pm.Layout = make([]int, len(order))
			for j, b := range order {
				pm.Layout[j] = int(b)
			}
		}
	}
	return snap
}

// procModel runs one procedure's standing estimate through the shared
// stages — the truncation correction, the gate over every sample absorbed
// so far, and the fit checks — and returns its publication with the
// corrected estimate and the trust decision behind its Trusted flag.
func (s *Server) procModel(ps *procState) (ProcModel, markov.EdgeProbs, pipeline.Decision) {
	pm := ProcModel{Proc: ps.name}
	st := ps.stream
	if st == nil {
		return pm, nil, pipeline.NoModel
	}
	pm.Samples, pm.Converged, pm.Rounds = st.SampleCount(), st.Converged(), st.Rounds()
	est := pipeline.Correct(st.Model, st.Probs(), st.Lost, st.SampleCount())
	d := s.cfg.Settings.AdmitStream(st)
	if est == nil {
		if d == pipeline.Trusted {
			d = pipeline.NoModel
		}
		return pm, nil, d
	}
	if d == pipeline.Trusted {
		d = s.cfg.Settings.Accept(st.Model, est, st.Confident())
	}
	pm.Trusted = d == pipeline.Trusted
	for _, e := range st.Model.BranchEdgeList() {
		pm.Branches = append(pm.Branches, Branch{From: int(e[0]), To: int(e[1]), Prob: est[e]})
	}
	return pm, est, d
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
	ShardQueueDepth      []int  `json:"shard_queue_depth"`
}

// Metrics returns a point-in-time copy of the counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
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
	for _, sh := range s.shards {
		m.ShardQueueDepth = append(m.ShardQueueDepth, len(sh.ch))
	}
	return m
}
