package cli

import (
	"bytes"
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"

	"codetomo/internal/tomography"
)

func TestUsageNamesFlagAndPrintsDefaults(t *testing.T) {
	var stderr bytes.Buffer
	fs := FlagSet("demo", "[flags] file.mc", &stderr)
	fs.Int("motes", 4, "deployment size")

	if code := Usage(fs, "invalid -motes: %d", 0); code != ExitUsage {
		t.Fatalf("usage returned %d, want %d", code, ExitUsage)
	}
	out := stderr.String()
	for _, want := range []string{"demo: invalid -motes: 0", "usage: demo [flags] file.mc", "-motes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stderr missing %q:\n%s", want, out)
		}
	}
}

// Range-checked flags reject a bad value inside fs.Parse, with an error
// that names the flag and the usage message after it, and pass defaults
// and in-range values through unchanged.
func TestRangedFlags(t *testing.T) {
	newFlags := func(stderr *bytes.Buffer) (*flag.FlagSet, *float64, *float64, *int, *int) {
		fs := FlagSet("demo", "[flags] file.mc", stderr)
		return fs, Prob(fs, "drop", "loss probability"),
			Float(fs, "harvest", 0.5, 0, math.Inf(1), "harvest rate"),
			Int(fs, "motes", 4, 1, math.MaxInt, "deployment size"),
			Int(fs, "level", 2, 0, 3, "level")
	}
	var stderr bytes.Buffer
	fs, drop, harvest, motes, level := newFlags(&stderr)
	if err := fs.Parse(nil); err != nil || *drop != 0 || *harvest != 0.5 || *motes != 4 || *level != 2 {
		t.Fatalf("defaults: err %v, got %v %v %d %d", err, *drop, *harvest, *motes, *level)
	}
	fs, drop, harvest, motes, level = newFlags(&stderr)
	if err := fs.Parse([]string{"-drop", "1", "-harvest", "1e6", "-motes", "1", "-level", "3"}); err != nil ||
		*drop != 1 || *harvest != 1e6 || *motes != 1 || *level != 3 {
		t.Fatalf("in range: err %v, got %v %v %d %d", err, *drop, *harvest, *motes, *level)
	}
	if stderr.Len() != 0 {
		t.Fatalf("valid flags printed to stderr:\n%s", stderr.String())
	}
	for _, bad := range [][]string{
		{"-drop", "1.5"}, {"-drop", "-0.1"}, {"-drop", "NaN"}, {"-drop", "x"},
		{"-harvest", "-1"}, {"-motes", "0"}, {"-motes", "2.5"}, {"-level", "4"},
	} {
		var stderr bytes.Buffer
		fs, _, _, _, _ := newFlags(&stderr)
		if err := fs.Parse(bad); err == nil {
			t.Fatalf("%v: parsed without error", bad)
		}
		out := stderr.String()
		if !strings.Contains(out, "flag "+bad[0]) || !strings.Contains(out, "usage: demo") {
			t.Fatalf("%v: stderr does not name the flag and print usage:\n%s", bad, out)
		}
	}
}

func TestParsePGOPasses(t *testing.T) {
	cases := []struct {
		spec string
		want PGOPasses
	}{
		{"", PGOPasses{}},
		{"none", PGOPasses{}},
		{"inline", PGOPasses{Inline: true}},
		{"superblock,pagepack", PGOPasses{Superblock: true, PagePack: true}},
		{"hotcold, inline", PGOPasses{Inline: true, HotCold: true}},
		{"all", PGOPasses{Inline: true, Superblock: true, HotCold: true, PagePack: true}},
	}
	for _, tc := range cases {
		got, err := ParsePGOPasses(tc.spec)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePGOPasses(%q) = (%+v, %v), want %+v", tc.spec, got, err, tc.want)
		}
	}
	if _, err := ParsePGOPasses("inline,unroll"); err == nil || !strings.Contains(err.Error(), "unroll") {
		t.Fatalf("unknown pass error = %v, want it to name the token", err)
	}
}

func TestEstimatorResolution(t *testing.T) {
	if est, err := Estimator("em", 8); err != nil || est != nil {
		t.Fatalf("em: got (%v, %v), want (nil, nil) — the pipeline supplies the tuned default", est, err)
	}
	for name, want := range map[string]string{"moments": "moments", "histogram": "histogram", "robust": "robust-em"} {
		est, err := Estimator(name, 8)
		if err != nil || est == nil || est.Name() != want {
			t.Fatalf("%s: got (%v, %v)", name, est, err)
		}
	}
	robust, _ := Estimator("robust", 8)
	if want := (tomography.Robust{Config: tomography.RobustConfig{EM: tomography.EMConfig{KernelHalfWidth: 8}}}); !reflect.DeepEqual(robust, want) {
		t.Fatalf("robust: got %+v, want EM at the tick with default trimming %+v", robust, want)
	}
	if _, err := Estimator("psychic", 8); err == nil || !strings.Contains(err.Error(), "psychic") {
		t.Fatalf("unknown estimator error = %v, want it to name the value", err)
	}
}
