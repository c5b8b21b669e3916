package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const tinyProgram = `
func work(v int) int {
	var r int;
	r = 0;
	if (v > 500) {
		r = r + v % 13;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 200; i = i + 1) {
		acc = acc + work(sense());
	}
	debug(acc);
}`

func writeProgram(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(path, []byte(tinyProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Invalid flags must exit 2 and name the offending flag on stderr — the
// same contract ctfleet and ctstationd follow.
func TestRunRejectsInvalidFlags(t *testing.T) {
	prog := writeProgram(t)
	cases := []struct {
		name     string
		args     []string
		wantFlag string
	}{
		{"no file", []string{}, "one source file"},
		{"two files", []string{prog, prog}, "one source file"},
		{"zero tick", []string{"-tick", "0", prog}, "-tick"},
		{"unknown estimator", []string{"-estimator", "psychic", prog}, "-estimator"},
		{"unknown pgo pass", []string{"-pgo", "inline,unroll", prog}, "-pgo"},
		{"negative pagecost", []string{"-pagecost", "-3", prog}, "-pagecost"},
		{"unknown workload", []string{"-workload", "tidal", prog}, "-workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantFlag) {
				t.Fatalf("stderr does not name %q:\n%s", tc.wantFlag, stderr.String())
			}
			if !strings.Contains(stderr.String(), "usage:") {
				t.Fatalf("stderr has no usage message:\n%s", stderr.String())
			}
		})
	}
}

func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || !strings.Contains(stderr.String(), "usage: ctomo") {
		t.Fatalf("exit = %d, want 0 with the usage\nstderr: %s", code, stderr.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{filepath.Join(t.TempDir(), "nope.mc")}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
}

func TestRunHappyPath(t *testing.T) {
	prog := writeProgram(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-static", prog}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"estimates (per procedure", "placement result", "misprediction reduction"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out)
		}
	}
}

// The full PGO stack under a flash-page penalty must run the pipeline end
// to end: the output-equality check inside the pipeline catches any
// semantics change, so exit 0 here is a meaningful assertion.
func TestRunWithPGOPasses(t *testing.T) {
	prog := writeProgram(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-pgo", "all", "-pagecost", "5", prog}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "placement result") {
		t.Fatalf("stdout missing placement result:\n%s", stdout.String())
	}
}

// -estimator robust runs Run with the outlier-trimming robust estimator,
// the same configuration ctfleet and ctstationd get from the flag.
func TestRunRobustEstimator(t *testing.T) {
	prog := writeProgram(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-estimator", "robust", prog}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	for _, want := range []string{"MAE vs oracle", "placement result"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}
