package apps

import (
	"testing"

	"codetomo/internal/compile"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("suite has %d apps, want 8", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Handler == "" || a.Description == "" || a.Workload == "" {
			t.Fatalf("incomplete app %+v", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate app %q", a.Name)
		}
		seen[a.Name] = true
		if _, ok := workload.Named(a.Workload, stats.NewRNG(1)); !ok {
			t.Fatalf("%s references unknown workload %q", a.Name, a.Workload)
		}
		got, ok := ByName(a.Name)
		if !ok || got.Name != a.Name {
			t.Fatalf("ByName(%q) failed", a.Name)
		}
	}
	if _, ok := ByName("missing"); ok {
		t.Fatal("ByName accepted unknown app")
	}
	if len(All()) != 8 {
		t.Fatal("All() incomplete")
	}
}

func TestSourceItersValidation(t *testing.T) {
	a := All()[0]
	for _, bad := range []int{0, -5, 40000} {
		if _, err := a.Source(bad); err == nil {
			t.Errorf("Source(%d) accepted", bad)
		}
	}
}

// TestAllAppsCompileRunAndProfile compiles every benchmark in every
// instrumentation mode, runs it to completion under its default workload,
// and checks the handler actually produced samples and executes branches.
func TestAllAppsCompileRunAndProfile(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			src, err := a.Source(500)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []compile.Mode{compile.ModeNone, compile.ModeTimestamps, compile.ModeEdgeCounters} {
				out, err := compile.Build(src, compile.Options{Instrument: mode, VerifyIR: true})
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				pm, ok := out.Meta.ProcByName[a.Handler]
				if !ok {
					t.Fatalf("handler %q not in program", a.Handler)
				}
				cfgM := mote.DefaultConfig()
				rng := stats.NewRNG(42)
				sensor, _ := workload.Named(a.Workload, rng)
				cfgM.Sensor = sensor
				cfgM.Entropy = workload.NewEntropy(rng.Fork())
				m := mote.New(out.Code, cfgM)
				if err := m.Run(200_000_000); err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				if !m.Halted() {
					t.Fatalf("mode %v: did not halt", mode)
				}
				if mode == compile.ModeTimestamps {
					ivs, err := trace.Extract(m.Trace())
					if err != nil {
						t.Fatal(err)
					}
					n := len(trace.ExclusiveByProc(ivs)[pm.Index])
					if n < 500 {
						t.Fatalf("handler samples = %d, want >= 500", n)
					}
				}
				// Every app except blink must exercise data-dependent
				// branches (blink alternates deterministically).
				if m.Stats().CondBranches == 0 {
					t.Fatal("no conditional branches executed")
				}
			}
		})
	}
}

// TestAppsDeterministic ensures a fixed seed reproduces identical runs —
// the property every experiment in the harness relies on.
func TestAppsDeterministic(t *testing.T) {
	a, _ := ByName("eventdetect")
	src, _ := a.Source(300)
	out, err := compile.Build(src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() mote.Stats {
		cfgM := mote.DefaultConfig()
		sensor, _ := workload.Named(a.Workload, stats.NewRNG(7))
		cfgM.Sensor = sensor
		m := mote.New(out.Code, cfgM)
		if err := m.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	if run() != run() {
		t.Fatal("same seed produced different executions")
	}
}

// TestHandlersHaveBranchDiversity verifies the suite gives the estimators
// something to estimate: every handler except blink has at least 2 branch
// blocks, and the suite total is substantial.
func TestHandlersHaveBranchDiversity(t *testing.T) {
	total := 0
	for _, a := range All() {
		src, _ := a.Source(100)
		out, err := compile.Build(src, compile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := out.CFG.Proc(a.Handler)
		if p == nil {
			t.Fatalf("%s: handler missing", a.Name)
		}
		nb := len(p.BranchBlocks())
		total += nb
		if a.Name != "blink" && nb < 2 {
			t.Fatalf("%s: handler has %d branch blocks, want >= 2", a.Name, nb)
		}
	}
	if total < 25 {
		t.Fatalf("suite has %d branch blocks total, want >= 25", total)
	}
}
