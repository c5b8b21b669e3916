package cli

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	codetomo "codetomo"
	"codetomo/internal/mote"
	"codetomo/internal/tomography"
)

func TestUsageNamesFlagAndPrintsDefaults(t *testing.T) {
	var stderr bytes.Buffer
	fs := NewFlagSet("demo", "[flags] file.mc", &stderr)
	fs.Int("motes", 4, "deployment size")

	if code := fs.Usagef("invalid -motes: %d", 0); code != ExitUsage {
		t.Fatalf("usage returned %d, want %d", code, ExitUsage)
	}
	out := stderr.String()
	for _, want := range []string{"demo: invalid -motes: 0", "usage: demo [flags] file.mc", "-motes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stderr missing %q:\n%s", want, out)
		}
	}
}

// Parse owns the exit contract: -h stops with ExitOK, a bad flag or a
// wrong positional count with ExitUsage, and only a good parse goes on.
func TestParseExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
		code int
		ok   bool
	}{
		{[]string{"-h"}, 1, ExitOK, false},
		{[]string{"-help"}, Files, ExitOK, false},
		{[]string{"-nosuch", "f.mc"}, 1, ExitUsage, false},
		{[]string{}, 1, ExitUsage, false},
		{[]string{"a.mc", "b.mc"}, 1, ExitUsage, false},
		{[]string{}, Files, ExitUsage, false},
		{[]string{"x"}, 0, ExitUsage, false},
		{[]string{"f.mc"}, 1, ExitOK, true},
		{[]string{"a.mc", "b.mc"}, Files, ExitOK, true},
		{[]string{}, 0, ExitOK, true},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		fs := NewFlagSet("demo", "[flags] file.mc", &stderr)
		code, ok := fs.Parse(tc.args, tc.want)
		if code != tc.code || ok != tc.ok {
			t.Fatalf("Parse(%q, %d) = (%d, %v), want (%d, %v)\nstderr: %s", tc.args, tc.want, code, ok, tc.code, tc.ok, stderr.String())
		}
		if !ok && !strings.Contains(stderr.String(), "usage: demo") {
			t.Fatalf("Parse(%q, %d) stopped without printing the usage:\n%s", tc.args, tc.want, stderr.String())
		}
	}
}

// Range-checked flags reject a bad value inside fs.Parse, with an error
// that names the flag and the usage message after it, and pass defaults
// and in-range values through unchanged.
func TestRangedFlags(t *testing.T) {
	type vals struct {
		drop, harvest float64
		motes, level  int
	}
	newFlags := func(stderr *bytes.Buffer, v *vals) *FlagSet {
		fs := NewFlagSet("demo", "[flags] file.mc", stderr)
		Prob(fs, &v.drop, "drop", "loss probability")
		Float(fs, &v.harvest, "harvest", 0.5, 0, math.Inf(1), "harvest rate")
		Int(fs, &v.motes, "motes", 4, 1, math.MaxInt, "deployment size")
		Int(fs, &v.level, "level", 2, 0, 3, "level")
		return fs
	}
	var stderr bytes.Buffer
	var v vals
	if _, ok := newFlags(&stderr, &v).Parse(nil, 0); !ok || v != (vals{0, 0.5, 4, 2}) {
		t.Fatalf("defaults: ok %v, got %+v", ok, v)
	}
	if _, ok := newFlags(&stderr, &v).Parse([]string{"-drop", "1", "-harvest", "1e6", "-motes", "1", "-level", "3"}, 0); !ok ||
		v != (vals{1, 1e6, 1, 3}) {
		t.Fatalf("in range: ok %v, got %+v", ok, v)
	}
	if stderr.Len() != 0 {
		t.Fatalf("valid flags printed to stderr:\n%s", stderr.String())
	}
	for _, bad := range [][]string{
		{"-drop", "1.5"}, {"-drop", "-0.1"}, {"-drop", "NaN"}, {"-drop", "x"},
		{"-harvest", "-1"}, {"-motes", "0"}, {"-motes", "2.5"}, {"-level", "4"},
	} {
		var stderr bytes.Buffer
		if code, _ := newFlags(&stderr, &v).Parse(bad, 0); code != ExitUsage {
			t.Fatalf("%v: exit %d, want %d", bad, code, ExitUsage)
		}
		out := stderr.String()
		if !strings.Contains(out, "flag "+bad[0]) || !strings.Contains(out, "usage: demo") {
			t.Fatalf("%v: stderr does not name the flag and print usage:\n%s", bad, out)
		}
	}
}

func TestParsePGOPasses(t *testing.T) {
	type passes struct{ inline, superblock, hotcold, pagepack bool }
	cases := []struct {
		args []string
		want passes
	}{
		{nil, passes{}},
		{[]string{"-pgo", "none"}, passes{}},
		{[]string{"-pgo", "inline"}, passes{inline: true}},
		{[]string{"-pgo", "superblock,pagepack"}, passes{superblock: true, pagepack: true}},
		{[]string{"-pgo", "hotcold, inline"}, passes{inline: true, hotcold: true}},
		{[]string{"-pgo", "all"}, passes{true, true, true, true}},
		{[]string{"-pgo", "all", "-pgo", "inline"}, passes{inline: true}},
	}
	for _, tc := range cases {
		var cfg codetomo.Config
		fs := NewFlagSet("demo", "", new(bytes.Buffer))
		PGO(fs, &cfg)
		_, ok := fs.Parse(tc.args, 0)
		if got := (passes{cfg.PGOInline, cfg.PGOSuperblock, cfg.PGOHotCold, cfg.PGOPagePack}); !ok || got != tc.want {
			t.Fatalf("%q: ok %v, got %+v, want %+v", tc.args, ok, got, tc.want)
		}
	}
	var stderr bytes.Buffer
	fs := NewFlagSet("demo", "", &stderr)
	PGO(fs, new(codetomo.Config))
	if code, _ := fs.Parse([]string{"-pgo", "inline,unroll"}, 0); code != ExitUsage || !strings.Contains(stderr.String(), "unroll") {
		t.Fatalf("unknown pass: exit %d, stderr %q; want exit 2 naming the token", code, stderr.String())
	}
}

// -estimator names a tick-free estimator value: each fits at the timer
// tick of the model it is given, so -tick needs no say in it.
func TestEstimatorResolution(t *testing.T) {
	parse := func(args ...string) (tomography.Estimator, int) {
		t.Helper()
		var cfg codetomo.Config
		fs := NewFlagSet("demo", "", new(bytes.Buffer))
		Tick(fs, &cfg.TickDiv)
		Estimator(fs, &cfg.Estimator)
		code, _ := fs.Parse(args, 0)
		return cfg.Estimator, code
	}
	if est, code := parse(); code != ExitOK || est != nil {
		t.Fatalf("default: got (%v, %d), want (nil, 0) — the pipeline supplies the tuned EM", est, code)
	}
	for name, want := range map[string]string{"moments": "moments", "histogram": "histogram", "robust": "robust-em"} {
		if est, code := parse("-estimator", name); code != ExitOK || est == nil || est.Name() != want {
			t.Fatalf("%s: got (%v, %d)", name, est, code)
		}
	}
	robust, _ := parse("-estimator", "robust", "-tick", "4")
	if want := (tomography.Robust{}); !reflect.DeepEqual(robust, want) {
		t.Fatalf("robust: got %+v, want the Robust{} value %+v", robust, want)
	}
	if _, code := parse("-estimator", "psychic"); code != ExitUsage {
		t.Fatalf("unknown estimator: exit %d, want %d", code, ExitUsage)
	}
}

// A shared flag's default is its destination's value when set, the
// library's zero-field default otherwise; a choice defaults to its first
// name.
func TestSharedDefaults(t *testing.T) {
	var cfg codetomo.Config
	var pred mote.Predictor
	seed := int64(1234)
	fs := NewFlagSet("demo", "", new(bytes.Buffer))
	Config(fs, &cfg)
	MaxCycles(fs, &cfg.MaxCycles)
	Predictor(fs, &pred)
	Seed(NewFlagSet("other", "", new(bytes.Buffer)), &seed)
	if _, ok := fs.Parse(nil, 0); !ok {
		t.Fatal("empty command line rejected")
	}
	want := codetomo.Config{Workload: "gaussian", Seed: 1, TickDiv: 8, MaxCycles: 2_000_000_000}
	if !reflect.DeepEqual(cfg, want) || pred != (mote.StaticNotTaken{}) || seed != 1234 {
		t.Fatalf("defaults: got %+v, predictor %v, preset seed %d", cfg, pred, seed)
	}
}

// sharedFlags are the settings more than one command takes. Each is
// registered once, here, and no command registers one by hand.
var sharedFlags = []string{"workload", "seed", "tick", "estimator", "static", "fuse", "rotate",
	"pgo", "pagecost", "predictor", "max-cycles", "cpuprofile", "memprofile"}

// flagNameCalls counts, per shared flag name, the calls in the Go files
// matched by glob that pass the name as a string literal.
func flagNameCalls(t *testing.T, glob string) map[string][]string {
	t.Helper()
	files, err := filepath.Glob(glob)
	if err != nil || len(files) == 0 {
		t.Fatalf("no files match %s (%v)", glob, err)
	}
	calls := make(map[string][]string)
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						calls[name] = append(calls[name], fset.Position(lit.Pos()).String())
					}
				}
			}
			return true
		})
	}
	return calls
}

func TestSharedFlagsRegisteredOnce(t *testing.T) {
	inCLI := flagNameCalls(t, "*.go")
	inCmds := flagNameCalls(t, "../../cmd/*/main.go")
	for _, name := range sharedFlags {
		if n := len(inCLI[name]); n != 1 {
			t.Errorf("-%s: %d registrations in internal/cli, want 1: %v", name, n, inCLI[name])
		}
		for _, pos := range inCmds[name] {
			t.Errorf("-%s registered by hand at %s; use the internal/cli function", name, pos)
		}
	}
}
