// Cohort-batched streaming simulation: the density-oriented fleet
// pipeline. Motes are partitioned into fixed-size cohorts, each cohort
// runs as one pooled task on a reused mote.Machine, and each mote's frames
// are reassembled, duration-extracted, and reduced to a compact MoteResult
// inside the cohort — raw frames and trace events die before the next
// cohort starts, so peak memory is O(workers × cohort), not O(fleet).
package fleet

import (
	"fmt"
	"sync"

	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// DefaultCohortSize is the streaming scheduler's batch size when
// SimConfig.Cohort is zero: big enough to amortize worker-local machine
// reuse and sink locking, small enough that a cohort's retained results
// stay a rounding error next to one machine's RAM.
const DefaultCohortSize = 64

// MoteResult is the streaming pipeline's per-mote output: everything the
// base station keeps after a mote's upload has been reassembled and
// duration-extracted, with the raw frames and trace events already
// dropped (unless SimConfig.KeepUpload asks for them).
type MoteResult struct {
	Spec MoteSpec
	// Link and ARQ count what happened on the channel and what recovery
	// cost; Uplink is the reassembly accounting.
	Link   LinkStats
	ARQ    ARQStats
	Uplink trace.UplinkStats
	// EventsLogged is the mote-side trace length before packetization.
	EventsLogged int
	// Stats are the mote's architectural counters.
	Stats mote.Stats
	// GrossTicks sums the gross (callee-inclusive) duration of every
	// recovered invocation, in ticks — exact, so fleet-level folds can
	// stay integer for as long as possible.
	GrossTicks uint64
	// Durations maps procedure index to measured exclusive durations in
	// cycles (tick-quantized with the mote's TickDiv).
	Durations map[int][]float64
	// Frames are the link's deliveries in arrival order, raw bytes as the
	// channel left them; BranchStats is the simulator's ground truth for
	// this mote (a real deployment would not have it). Both are nil unless
	// SimConfig.KeepUpload retained them.
	Frames      [][]byte
	BranchStats map[int32]*mote.BranchStat
}

// streamWorker is the per-task scratch the engine recycles across cohorts:
// the reused machine (reset per mote), the mote's sensor, entropy and link
// RNGs (reseeded per mote, which is cheaper than building them), the
// uplink's packet list, encode buffer and frame list, the base station's
// receive window for the current mote and its recovered intervals, a
// cohort-local dense oracle folded into the shared one once per cohort,
// and the result slots handed to the sink. At most pool.Workers() of these are ever live.
type streamWorker struct {
	m                     *mote.Machine
	sensor, link, entropy *stats.RNG
	entropyPort           *workload.Entropy // the RNG port, on entropy
	pkts                  []trace.Packet
	enc                   []byte
	frames                [][]byte
	rx                    *trace.Reassembler
	ivs                   []trace.Interval
	oracle                []mote.BranchStat
	out                   []MoteResult
}

func newStreamWorker(cfg SimConfig) *streamWorker {
	entropy := stats.NewRNG(0)
	rx := trace.NewReassembler(0)
	rx.SkipCRC = cfg.Link.SkipCRC
	return &streamWorker{
		sensor:      stats.NewRNG(0),
		link:        stats.NewRNG(0),
		entropy:     entropy,
		entropyPort: workload.NewEntropy(entropy),
		rx:          rx,
		oracle:      make([]mote.BranchStat, len(cfg.Prog)),
	}
}

// runMote simulates one mote on the worker's reused machine and reduces
// it to a MoteResult. Reset leaves the machine bit-identical to a fresh
// New, and every stream and buffer is reseeded or restarted per mote, so
// reuse cannot leak state between motes.
func (w *streamWorker) runMote(cfg SimConfig, spec MoteSpec) (MoteResult, error) {
	mc, err := w.moteConfig(cfg, spec)
	if err != nil {
		return MoteResult{}, fmt.Errorf("fleet: mote %d: %w", spec.ID, err)
	}
	if w.m == nil {
		w.m = mote.New(cfg.Prog, mc)
	} else {
		w.m.Reset(mc)
	}
	if err := runMachine(w.m, cfg); err != nil {
		return MoteResult{}, fmt.Errorf("fleet: mote %d: %w", spec.ID, err)
	}
	frames, ls, ast, events, err := w.uplink(w.m, cfg, spec)
	if err != nil {
		return MoteResult{}, fmt.Errorf("fleet: mote %d: %w", spec.ID, err)
	}

	// The base station's per-mote half, fused in: the receive window
	// already holds the decoded upload; extract durations and let the
	// frames go.
	ivs, ust := w.rx.AppendRecovered(w.ivs[:0])
	w.ivs = ivs
	var gross uint64
	for _, iv := range ivs {
		gross += iv.GrossTicks()
	}
	w.m.AddBranchStatsTo(w.oracle)

	res := MoteResult{
		Spec:         spec,
		Link:         ls,
		ARQ:          ast,
		Uplink:       ust,
		EventsLogged: events,
		Stats:        w.m.Stats(),
		GrossTicks:   gross,
		Durations:    trace.CyclesByProc(ivs, cfg.Mote.TickDiv),
	}
	if cfg.KeepUpload {
		// The frames alias the encode buffer: hand it over with them.
		res.Frames = frames
		w.enc = nil
		// BranchStats aliases the machine's dense table, which the next
		// mote's Reset clears: keep copies.
		res.BranchStats = w.m.BranchStats()
		for pc, st := range res.BranchStats {
			c := *st
			res.BranchStats[pc] = &c
		}
	}
	return res, nil
}

// SimulateStreamOn runs the deployment through the cohort-batched
// streaming pipeline on the shared pool. Motes are partitioned into
// cohorts of cfg.Cohort specs; each cohort is one pooled task running its
// motes sequentially on one reused machine, then handing the cohort's
// MoteResults to sink. The returned dense table is the fleet's merged
// ground-truth branch oracle, indexed by pc (DenseBranchStats gives the
// map view).
//
// sink is called once per cohort, never concurrently, with the index of
// the cohort's first spec and the cohort's results in spec order. Cohorts
// arrive in completion order, so sinks must write into index-addressed
// slots or fold commutatively (integer sums). The slice passed to sink is
// engine-owned and recycled after sink returns; the MoteResult values and
// everything they reference are the sink's to keep. A sink error aborts
// the run.
//
// Results are bit-identical across Workers, Cohort, and GOMAXPROCS: each
// mote is a pure function of (cfg, spec), machine reuse is pinned
// equivalent to construction, and every cross-cohort fold is either
// index-addressed or a commutative integer sum.
func SimulateStreamOn(pool *Pool, cfg SimConfig, specs []MoteSpec, sink func(first int, cohort []MoteResult) error) ([]mote.BranchStat, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("fleet: no motes")
	}
	if _, ok := cfg.Mote.Predictor.(mote.TrainablePredictor); ok {
		return nil, fmt.Errorf("fleet: predictor %q is stateful (TrainablePredictor); fleet motes run concurrently and cannot share trained state", cfg.Mote.Predictor.Name())
	}
	cohort := cfg.Cohort
	if cohort <= 0 {
		cohort = DefaultCohortSize
	}

	oracle := make([]mote.BranchStat, len(cfg.Prog))
	free := make(chan *streamWorker, pool.Workers())
	nCohorts := (len(specs) + cohort - 1) / cohort
	errs := make([]error, nCohorts)
	var (
		sinkMu  sync.Mutex
		stopped bool // set under sinkMu on first error; later cohorts bail out
		wg      sync.WaitGroup
	)
	for c := 0; c < nCohorts; c++ {
		c := c
		first := c * cohort
		end := first + cohort
		if end > len(specs) {
			end = len(specs)
		}
		batch := specs[first:end]
		pool.Go(&wg, func() {
			sinkMu.Lock()
			bail := stopped
			sinkMu.Unlock()
			if bail {
				return
			}
			var w *streamWorker
			select {
			case w = <-free:
			default:
				w = newStreamWorker(cfg)
			}
			if cap(w.out) < len(batch) {
				w.out = make([]MoteResult, len(batch))
			}
			out := w.out[:len(batch)]
			for j, spec := range batch {
				res, err := w.runMote(cfg, spec)
				if err != nil {
					sinkMu.Lock()
					errs[c] = err
					stopped = true
					sinkMu.Unlock()
					return
				}
				out[j] = res
			}
			sinkMu.Lock()
			if !stopped {
				for pc := range w.oracle {
					st := &w.oracle[pc]
					if st.Taken == 0 && st.NotTaken == 0 {
						continue
					}
					d := &oracle[pc]
					d.Taken += st.Taken
					d.NotTaken += st.NotTaken
					d.Mispred += st.Mispred
					*st = mote.BranchStat{}
				}
				if err := sink(first, out); err != nil {
					errs[c] = fmt.Errorf("fleet: sink: %w", err)
					stopped = true
				}
			}
			sinkMu.Unlock()
			// Recycle the worker: the machine is Reset per mote and the
			// result slots are overwritten per cohort, so nothing can leak
			// between cohorts. Dropped (collected) when the buffer is full.
			select {
			case free <- w:
			default:
			}
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return oracle, nil
}

// SimulateStream materializes the streaming pipeline's per-mote results in
// spec order alongside the merged oracle, for fleets small enough to hold.
func SimulateStream(cfg SimConfig, specs []MoteSpec) ([]MoteResult, []mote.BranchStat, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	out := make([]MoteResult, len(specs))
	oracle, err := SimulateStreamOn(NewPool(workers), cfg, specs, func(first int, cohort []MoteResult) error {
		copy(out[first:], cohort)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, oracle, nil
}

// DenseBranchStats converts a dense pc-indexed oracle into the map view
// MergeBranchStats produces for the estimator-facing API.
func DenseBranchStats(dense []mote.BranchStat) map[int32]*mote.BranchStat {
	out := make(map[int32]*mote.BranchStat)
	for pc := range dense {
		if st := dense[pc]; st.Taken != 0 || st.NotTaken != 0 {
			c := st
			out[int32(pc)] = &c
		}
	}
	return out
}
