package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const tinyProgram = `
func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 50; i = i + 1) {
		if (sense() > 500) {
			acc = acc + 1;
		}
	}
	debug(acc);
}`

// The exit contract: -h 0, a run 0, a runtime failure 1, and a usage
// error 2 naming the flag.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(prog, []byte(tinyProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "usage: motesim"},
		{"run", []string{"-branches", "-predictor", "btfn", "-trace-out", filepath.Join(dir, "t.ctt"), prog}, 0, ""},
		{"missing file", []string{filepath.Join(dir, "nope.mc")}, 1, "nope.mc"},
		{"cycle budget exhausted", []string{"-max-cycles", "10", prog}, 1, "cycle budget"},
		{"negative tick", []string{"-tick", "-1", prog}, 2, "-tick"},
		{"unknown predictor", []string{"-predictor", "oracle", prog}, 2, "-predictor"},
		{"unknown workload", []string{"-workload", "tidal", prog}, 2, "-workload"},
		{"no file", nil, 2, "one source file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit = %d, want %d\nstderr: %s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr does not contain %q:\n%s", tc.stderr, stderr.String())
			}
			if tc.code == 0 && tc.name != "help" && !strings.Contains(stdout.String(), "branch ground truth") {
				t.Fatalf("stdout missing the branch profile:\n%s", stdout.String())
			}
		})
	}
}
