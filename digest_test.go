package codetomo_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/cli"
	"codetomo/internal/compile"
	"codetomo/internal/fault"
	"codetomo/internal/isa"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/pipeline"
	"codetomo/internal/station"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/output_digests.golden")

// digestInvocations is the handler invocations per app in every digest
// case: enough for every estimator to clear the sample gate, few enough
// that the whole matrix runs in seconds under the race detector.
const digestInvocations = 120

// TestOutputDigests pins the program's outputs bit for bit: one SHA-256
// per case over compile.Build's code, listing and metadata, over Run's
// result, over RunFleet's result (wall times zeroed), FleetUploads'
// frames and FleetFrames' frame multiset, and over the station's snapshot
// after those frames. A refactor that claims
// to change no output must leave testdata/output_digests.golden
// untouched; run with -update only after an intended output change.
func TestOutputDigests(t *testing.T) {
	got := make(map[string]string)
	put := func(name string, v any) {
		if _, dup := got[name]; dup {
			t.Errorf("duplicate digest case %q", name)
		}
		got[name] = digest(t, v)
	}

	var srcs []struct{ name, src string }
	for _, a := range append(apps.All(), apps.CallChain) {
		src, err := a.Source(digestInvocations)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, struct{ name, src string }{a.Name, src})
	}
	corpus, err := filepath.Glob("examples/minic/*.mc")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("examples/minic: %v (%d files)", err, len(corpus))
	}
	for _, path := range corpus {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, struct{ name, src string }{filepath.Base(path), string(b)})
	}
	for _, s := range srcs {
		digestBuilds(t, s.name, s.src, put)
	}

	for _, s := range srcs[:len(apps.All())+1] {
		for _, est := range []string{"em", "robust", "moments", "histogram"} {
			for _, tick := range []string{"4", "8"} {
				name := fmt.Sprintf("run/%s/%s/tick%s", s.name, est, tick)
				res, err := codetomo.Run(s.src, parseConfig(t, "-estimator", est, "-tick", tick, "-static"))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				put(name, res)
			}
		}
	}

	for _, fc := range digestFleets(t) {
		sense, _ := apps.ByName("sense")
		src, err := sense.Source(digestInvocations)
		if err != nil {
			t.Fatal(err)
		}
		res, err := codetomo.RunFleet(src, fc.cfg)
		if err != nil {
			t.Fatalf("fleet %s: %v", fc.name, err)
		}
		res.Fleet.SimWall, res.Fleet.UplinkWall, res.Fleet.EstimateWall = 0, 0, 0
		put("fleet/"+fc.name, res)

		uploads, err := codetomo.FleetUploads(src, fc.cfg)
		if err != nil {
			t.Fatalf("uploads %s: %v", fc.name, err)
		}
		var frames [][]byte
		for _, up := range uploads {
			frames = append(frames, up.Frames...)
		}
		put("uploads/"+fc.name, frames)
		if fc.name == "lossy-arq" {
			put("frames/"+fc.name, streamedFrames(t, src, fc.cfg))
		}

		sc := station.Config{Program: src}
		sc.TickDiv, sc.Estimator = fc.cfg.TickDiv, fc.cfg.Estimator
		srv, err := station.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			// The corrupted frames the uplink delivers are refused.
			if err := srv.IngestFrame(f); err != nil && !errors.Is(err, station.ErrRejected) {
				t.Fatalf("station %s: %v", fc.name, err)
			}
		}
		snap, err := srv.CutEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		put("station/"+fc.name, snap)
	}

	checkDigests(t, filepath.Join("testdata", "output_digests.golden"), got)
}

// digestBuilds digests one source's build under four option sets:
// plain, timestamp-instrumented, edge-counted with every optional pass,
// and the full PGO pipeline (uniform weights) on paged flash.
func digestBuilds(t *testing.T, name, src string, put func(string, any)) {
	plain, err := compile.Build(src, compile.Options{VerifyIR: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	probs := make(map[string]markov.EdgeProbs)
	for _, p := range plain.CFG.Procs {
		probs[p.Name] = markov.Uniform(p)
	}
	_, pgo := pipeline.Plan(plain.CFG, probs, compile.PGOOptions{Inline: true, Superblock: true, HotCold: true, PagePack: true})
	paged := isa.DefaultCostModel()
	paged.PageCrossPenalty = 5
	for _, o := range []struct {
		name string
		opts compile.Options
	}{
		{"plain", compile.Options{}},
		{"timestamps", compile.Options{Instrument: compile.ModeTimestamps}},
		{"counters-passes", compile.Options{Instrument: compile.ModeEdgeCounters, FuseCompares: true, RotateLoops: true, DeadBranchElim: true}},
		{"pgo-paged", compile.Options{PGO: pgo, Cost: paged}},
	} {
		o.opts.VerifyIR = true
		out, err := compile.Build(src, o.opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, o.name, err)
		}
		put("build/"+name+"/"+o.name, []any{out.Code, out.Listing()})
		put("meta/"+name+"/"+o.name, metaDigestable(out.Meta))
	}
}

// metaDigestable is m in a JSON-encodable shape: the edge-keyed maps
// become slices in edge order (JSON has no struct map keys), and
// ProcByName, whose values alias Procs, becomes name → index.
func metaDigestable(m *compile.Meta) any {
	type edge struct {
		Key  compile.EdgeKey
		Info compile.EdgeInfo
	}
	type counter struct {
		Key compile.EdgeKey
		ID  int32
	}
	type proc struct {
		compile.ProcMeta
		Edges       []edge    // shadows ProcMeta.Edges
		ArcCounters []counter // shadows ProcMeta.ArcCounters
	}
	type meta struct {
		compile.Meta
		Procs      []proc         // shadows Meta.Procs
		ProcByName map[string]int // shadows Meta.ProcByName
	}
	byEdge := func(a, b compile.EdgeKey) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	}
	out := meta{Meta: *m, ProcByName: make(map[string]int)}
	for name, pm := range m.ProcByName {
		out.ProcByName[name] = pm.Index
	}
	for _, pm := range m.Procs {
		p := proc{ProcMeta: *pm}
		for k, e := range pm.Edges {
			p.Edges = append(p.Edges, edge{k, e})
		}
		slices.SortFunc(p.Edges, func(a, b edge) int { return byEdge(a.Key, b.Key) })
		for k, id := range pm.ArcCounters {
			p.ArcCounters = append(p.ArcCounters, counter{k, id})
		}
		slices.SortFunc(p.ArcCounters, func(a, b counter) int { return byEdge(a.Key, b.Key) })
		out.Procs = append(out.Procs, p)
	}
	return out
}

// streamedFrames is every frame FleetFrames emits, sorted: motes arrive in
// scheduling order, so only the multiset is deterministic.
func streamedFrames(t *testing.T, src string, cfg codetomo.FleetConfig) [][]byte {
	var frames [][]byte
	err := codetomo.FleetFrames(src, cfg, func(fs [][]byte) error {
		frames = append(frames, fs...)
		return nil
	})
	if err != nil {
		t.Fatalf("FleetFrames: %v", err)
	}
	slices.SortFunc(frames, bytes.Compare)
	return frames
}

type digestFleet struct {
	name string
	cfg  codetomo.FleetConfig
}

// digestFleets is the fleet matrix: a lossy channel under ARQ, faulty
// motes under the robust estimator, motes on harvested power, and a
// corrupting channel into a receiver that skips the CRC check.
func digestFleets(t *testing.T) []digestFleet {
	base := func(args ...string) codetomo.FleetConfig {
		return codetomo.FleetConfig{Config: parseConfig(t, append([]string{"-seed", "5", "-workload", "gaussian"}, args...)...), Motes: 3, Batches: 4}
	}
	lossy := base()
	lossy.DropProb, lossy.CorruptProb, lossy.ARQRetries = 0.1, 0.02, 3
	faulty := base("-estimator", "robust", "-tick", "4")
	faulty.CorruptProb, faulty.ARQRetries = 0.05, 3
	faulty.Faults = fault.Config{CrashMTBFCycles: 400_000, BrownoutProb: 0.3, SensorStuckProb: 0.01, SensorNoiseProb: 0.05}
	harvest := base("-static")
	harvest.Energy = fault.EnergyConfig{HarvestUJPerKCycle: 0.8, HarvestNoiseSigma: 0.4, CapacityUJ: 60, BrownoutFloorUJ: 2, RestartChargeUJ: 40}
	harvest.Checkpoint = mote.CheckpointPolicy{EveryKInvocations: 4, OnLowChargeFrac: 0.25}
	skipCRC := base()
	skipCRC.DropProb, skipCRC.CorruptProb, skipCRC.SkipCRC = 0.05, 0.05, true
	return []digestFleet{{"lossy-arq", lossy}, {"faulty-robust", faulty}, {"harvest", harvest}, {"skip-crc", skipCRC}}
}

// parseConfig builds a pipeline config from command-line flags, exactly
// as ctomo does.
func parseConfig(t *testing.T, args ...string) codetomo.Config {
	var cfg codetomo.Config
	var stderr strings.Builder
	fs := cli.NewFlagSet("digest", "", &stderr)
	cli.Config(fs, &cfg)
	if _, ok := fs.Parse(args, 0); !ok {
		t.Fatalf("parse %q: %s", args, stderr.String())
	}
	return cfg
}

// digest is the SHA-256 of v's JSON encoding, which spells every float
// in its shortest round-tripping form and every map in key order.
func digest(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// checkDigests compares got against the golden file, one "name digest"
// line per case in name order, and names every case that moved.
func checkDigests(t *testing.T, golden string, got map[string]string) {
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s\n", n, got[n])
	}
	if *updateDigests {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	want := make(map[string]string)
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		n, d, _ := strings.Cut(l, " ")
		want[n] = d
	}
	for _, n := range names {
		if w, ok := want[n]; !ok {
			t.Errorf("%s: not in %s", n, golden)
		} else if w != got[n] {
			t.Errorf("%s: output changed (digest %.12s, golden %.12s)", n, got[n], w)
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: in %s but no longer produced", n, golden)
		}
	}
}
