// Cohort-batched streaming simulation: the density-oriented fleet
// pipeline. Motes are partitioned into fixed-size cohorts, each pool
// goroutine runs its cohorts on one reused mote.Machine, and each mote's
// frames are reassembled, duration-extracted, and reduced to a compact
// MoteResult plus counts in the cohort's Samples inside the cohort — raw
// frames and trace events die before the next cohort starts, so peak
// memory is O(workers) cohorts, not O(fleet).
package fleet

import (
	"fmt"
	"sync"

	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// cohortSize is the motes per sink call. Workers reuse their machine
// across cohorts, so it sets only how often the sink lock is taken and how
// many results a worker holds before handing them over.
const cohortSize = 64

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
	// stay integer for as long as possible. The exclusive durations go to
	// the cohort's Samples (see SimulateSamplesOn).
	GrossTicks uint64
	// Frames are the link's deliveries in arrival order, raw bytes as the
	// channel left them; BranchStats is the simulator's ground truth for
	// this mote (a real deployment would not have it). Both are nil unless
	// SimConfig.KeepUpload retained them.
	Frames      [][]byte
	BranchStats map[int32]*mote.BranchStat
}

// streamWorker is one pool goroutine's scratch for a whole
// SimulateSamplesOn call: the reused machine (reset per mote), the mote's
// sensor, entropy and link RNGs (reseeded per mote, which is cheaper than
// building them), a sensor per workload regime on the sensor RNG (reset
// per mote), the radio link, the base station's receive window for the
// current mote and its recovered exclusive ticks per procedure, the
// worker's dense oracle folded into the fleet's once the call's cohorts
// are done, the current cohort's samples, and the result slots handed to
// the sink.
type streamWorker struct {
	m                        *mote.Machine
	sensor, linkRNG, entropy *stats.RNG
	entropyPort              *workload.Entropy // the RNG port, on entropy
	sensors                  map[string]workload.Source
	link                     link
	rx                       *trace.Reassembler
	ticks                    [][]uint64
	oracle                   []mote.BranchStat
	samples                  Samples
	out                      []MoteResult
}

func newStreamWorker(cfg SimConfig) *streamWorker {
	entropy := stats.NewRNG(0)
	rx := trace.NewReassembler(0)
	rx.SkipCRC = cfg.Link.SkipCRC
	procs := tracedProcs(cfg.Prog)
	return &streamWorker{
		sensor:      stats.NewRNG(0),
		linkRNG:     stats.NewRNG(0),
		entropy:     entropy,
		entropyPort: workload.NewEntropy(entropy),
		sensors:     make(map[string]workload.Source),
		rx:          rx,
		ticks:       make([][]uint64, procs),
		oracle:      make([]mote.BranchStat, len(cfg.Prog)),
		samples:     newSamples(procs, max(cfg.Rounds, 1)),
	}
}

// fold adds one mote's recovered exclusive ticks to the cohort's samples
// and empties the tick buffers: procedure p's n ticks, in completion
// order, are cut into runs of ceil(n/rounds), run r going to round r as
// float64(ticks)·tickDiv cycles. Equal consecutive ticks are added as one
// count.
func (w *streamWorker) fold(rounds, tickDiv int) {
	for p, ticks := range w.ticks {
		chunk := (len(ticks) + rounds - 1) / rounds
		for r := 0; len(ticks) > 0; r++ {
			h := &w.samples[p][r]
			run := ticks[:min(chunk, len(ticks))]
			for len(run) > 0 {
				n := 1
				for n < len(run) && run[n] == run[0] {
					n++
				}
				h.Add(float64(run[0])*float64(tickDiv), n)
				run = run[n:]
			}
			ticks = ticks[min(chunk, len(ticks)):]
		}
		w.ticks[p] = w.ticks[p][:0]
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
	ls, ast, events, err := w.uplink(w.m, cfg, spec)
	if err != nil {
		return MoteResult{}, fmt.Errorf("fleet: mote %d: %w", spec.ID, err)
	}

	// The base station's per-mote half, fused in: the receive window
	// already holds the upload; salvage its ticks and let the frames go.
	gross, ust := w.rx.RecoverTicks(w.ticks)
	w.fold(max(cfg.Rounds, 1), cfg.Mote.TickDiv)
	w.m.AddBranchStatsTo(w.oracle)

	res := MoteResult{
		Spec:         spec,
		Link:         ls,
		ARQ:          ast,
		Uplink:       ust,
		EventsLogged: events,
		Stats:        w.m.Stats(),
		GrossTicks:   gross,
	}
	if cfg.KeepUpload {
		// The frames alias the link's encode and flip arenas: hand both
		// over with them, and the delivery list that holds them.
		res.Frames = w.link.delivered
		w.link.enc, w.link.delivered, w.link.flips = nil, nil, nil
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
// cohorts of cohortSize specs; the pool's goroutines claim cohorts in
// order, each running its cohorts' motes sequentially on the one machine
// it reuses for the whole call, and hand each cohort's MoteResults to
// sink. The returned dense table is the fleet's merged ground-truth branch
// oracle, indexed by pc (DenseBranchStats gives the map view).
//
// sink is called once per cohort, never concurrently, with the index of
// the cohort's first spec and the cohort's results in spec order. Cohorts
// arrive in completion order, so sinks must write into index-addressed
// slots or fold commutatively (integer sums). The slice passed to sink is
// engine-owned and recycled after sink returns; the MoteResult values and
// everything they reference are the sink's to keep. A mote or sink error
// aborts the run: cohorts not yet started are skipped and sink is not
// called again.
//
// Results are bit-identical across Workers and GOMAXPROCS: each mote is a
// pure function of (cfg, spec), machine reuse is pinned equivalent to
// construction, and every cross-cohort fold is either index-addressed or a
// commutative integer sum.
func SimulateStreamOn(pool *Pool, cfg SimConfig, specs []MoteSpec, sink func(first int, cohort []MoteResult) error) ([]mote.BranchStat, error) {
	return SimulateSamplesOn(pool, cfg, specs, func(first int, cohort []MoteResult, _ Samples) error { return sink(first, cohort) })
}

// SimulateSamplesOn is SimulateStreamOn whose sink also receives the
// cohort's recovered exclusive durations, folded per procedure and uplink
// round. The Samples are engine-owned and reset after sink returns, so a
// sink keeps them by merging them (Samples.Merge), an integer sum that
// keeps the result independent of cohort order.
func SimulateSamplesOn(pool *Pool, cfg SimConfig, specs []MoteSpec, sink func(first int, cohort []MoteResult, samples Samples) error) ([]mote.BranchStat, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("fleet: no motes")
	}
	if _, ok := cfg.Mote.Predictor.(mote.TrainablePredictor); ok {
		return nil, fmt.Errorf("fleet: predictor %q is stateful (TrainablePredictor); fleet motes run concurrently and cannot share trained state", cfg.Mote.Predictor.Name())
	}

	nCohorts := (len(specs) + cohortSize - 1) / cohortSize
	workers := make([]*streamWorker, min(nCohorts, pool.Workers()))
	for w := range workers {
		workers[w] = newStreamWorker(cfg)
		workers[w].out = make([]MoteResult, min(cohortSize, len(specs)))
	}
	var (
		mu  sync.Mutex // serializes sink calls and guards err
		err error      // the first failure; later cohorts are skipped
	)
	pool.Each(nCohorts, func(wi, c int) {
		mu.Lock()
		failed := err != nil
		mu.Unlock()
		if failed {
			return
		}
		w := workers[wi]
		first := c * cohortSize
		batch := specs[first:min(first+cohortSize, len(specs))]
		out := w.out[:len(batch)]
		var moteErr error
		for j, spec := range batch {
			if out[j], moteErr = w.runMote(cfg, spec); moteErr != nil {
				break
			}
		}
		mu.Lock()
		switch {
		case err != nil:
		case moteErr != nil:
			err = moteErr
		default:
			if sinkErr := sink(first, out, w.samples); sinkErr != nil {
				err = fmt.Errorf("fleet: sink: %w", sinkErr)
			}
		}
		mu.Unlock()
		w.samples.reset()
	})
	if err != nil {
		return nil, err
	}
	// Every worker's oracle, folded once: integer sums, so the split of
	// motes among workers cannot show.
	oracle := make([]mote.BranchStat, len(cfg.Prog))
	for _, w := range workers {
		for pc, st := range w.oracle {
			d := &oracle[pc]
			d.Taken += st.Taken
			d.NotTaken += st.NotTaken
			d.Mispred += st.Mispred
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
