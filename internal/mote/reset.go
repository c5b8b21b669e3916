package mote

import "codetomo/internal/isa"

// Reset reinitializes the machine in place for a fresh run of the same
// program under a (possibly different) configuration. New(prog, cfg) and
// Reset(cfg) on an already-used machine leave bit-identical state — the
// fleet's machine-reuse determinism rests on that, pinned by
// TestResetMatchesNew — but Reset reuses every buffer whose shape is
// unchanged: RAM is re-zeroed in place, the trace/radio/debug buffers are
// truncated, and the dense branch and profile tables are cleared. A worker
// simulating a fleet can therefore run one mote after another with zero
// steady-state allocations on the mains-powered path (pinned by
// TestResetRunAllocatesNothing); only a shape change (different RAMWords,
// harvested-power state) or a different cost model, which the program's
// block table is decoded under (see blocks.go), allocates. The compiled
// program and the cost model are shared read-only and never touched.
func (m *Machine) Reset(cfg Config) {
	if cfg.RAMWords <= 0 {
		cfg.RAMWords = isa.DefaultRAMWords
	}
	if cfg.TickDiv <= 0 {
		cfg.TickDiv = isa.DefaultTickDiv
	}
	if cfg.Predictor == nil {
		cfg.Predictor = StaticNotTaken{}
	}
	if cfg.Cost == nil {
		cfg.Cost = isa.DefaultCostModel()
	}
	if cfg.MaxTraceEvents <= 0 {
		cfg.MaxTraceEvents = 1 << 22
	}
	if cfg.Sensor == nil {
		cfg.Sensor = zeroSource{}
	}
	if cfg.Entropy == nil {
		cfg.Entropy = zeroSource{}
	}
	m.cfg = cfg

	m.pc = 0
	m.sp = int32(cfg.RAMWords)
	m.regs = [16]uint16{}
	if len(m.mem) == cfg.RAMWords {
		clear(m.mem)
	} else {
		m.mem = make([]uint16, cfg.RAMWords)
	}
	m.halted = false
	m.resetIdx = 0

	m.ledState = 0
	m.radioBuf = m.radioBuf[:0]
	m.debugOut = m.debugOut[:0]
	m.trace = m.trace[:0]
	if len(m.profCnt) == len(m.prog) {
		clear(m.profCnt)
	} else {
		m.profCnt = make([]uint64, len(m.prog))
	}
	if len(m.branchStat) == len(m.prog) {
		clear(m.branchStat)
	} else {
		m.branchStat = make([]BranchStat, len(m.prog))
	}

	m.costs = [256]uint32{}
	for op, cyc := range cfg.Cost.Cycles {
		m.costs[op] = cyc
	}
	m.penalty = uint64(cfg.Cost.TakenPenalty)
	m.pagePen = uint64(cfg.Cost.PageCrossPenalty)
	if m.code == nil || m.code.cost != *cfg.Cost {
		m.code = decodeBlocks(m.prog, cfg.Cost)
	}
	m.bimodal = nil
	m.trainable = nil
	switch p := cfg.Predictor.(type) {
	case StaticNotTaken:
		m.predKind = predNotTaken
	case BTFN:
		m.predKind = predBTFN
	case *Bimodal:
		// A shared *Bimodal keeps its trained table across machines, exactly
		// as New leaves it; resetting it here would change single-machine
		// semantics.
		m.predKind = predBimodal
		m.bimodal = p
	default:
		m.predKind = predGeneric
		m.trainable, _ = cfg.Predictor.(TrainablePredictor)
	}

	m.power = nil
	if cfg.Power != nil {
		pw := cfg.Power.WithDefaults()
		m.cfg.Power = &pw
		m.power = &powerState{cfg: pw, charge: pw.StartChargeUJ}
	}
	m.durableLen = 0
	m.traceDepth = 0
	m.invSinceCkpt = 0
	m.ckptImage = nil
	m.stats = Stats{}
}

// AddBranchStatsTo accumulates this machine's dense ground-truth branch
// table into dst, which must span the program (len(dst) >= program
// length). The fleet's streaming pipeline folds per-mote tables into one
// oracle this way, without materializing a map per mote.
func (m *Machine) AddBranchStatsTo(dst []BranchStat) {
	for pc := range m.branchStat {
		st := &m.branchStat[pc]
		if st.Taken == 0 && st.NotTaken == 0 {
			continue
		}
		d := &dst[pc]
		d.Taken += st.Taken
		d.NotTaken += st.NotTaken
		d.Mispred += st.Mispred
	}
}
