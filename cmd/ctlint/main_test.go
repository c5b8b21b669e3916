package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The linter's exit contract: -h 0, a clean or warning-only run 0, an
// error diagnostic 1, and a usage error or unreadable file 2.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	broken := filepath.Join(dir, "broken.mc")
	if err := os.WriteFile(broken, []byte("func main() { x = ; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	clean := "../../examples/minic/clean.mc"
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "usage: ctlint"},
		{"clean", []string{clean}, 0, ""},
		{"warnings only", []string{"../../examples/minic/lintdemo.mc"}, 0, ""},
		{"error diagnostic", []string{broken}, 1, ""},
		{"missing file", []string{filepath.Join(dir, "nope.mc")}, 2, "nope.mc"},
		{"bad budget", []string{"-max-cycles", "-5", clean}, 2, "-max-cycles"},
		{"no file", nil, 2, "at least one source file"},
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
		})
	}
}

// -json prints a JSON array even when nothing is found, and -max-cycles
// turns the cost bound into a warning.
func TestRunJSON(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-json", "../../examples/minic/clean.mc"}, 0},
		{[]string{"-json", "-max-cycles", "1", "../../examples/minic/clean.mc"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit = %d\nstderr: %s", tc.args, code, stderr.String())
		}
		var diags []map[string]any
		if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
			t.Fatalf("%q: stdout is not a JSON array: %v\n%s", tc.args, err, stdout.String())
		}
		cycles := 0
		for _, d := range diags {
			if d["code"] == "cost-cycles" {
				cycles++
			}
		}
		if (cycles > 0) != (tc.want > 0) {
			t.Fatalf("%q: %d cost-cycles warnings, want %d or more", tc.args, cycles, tc.want)
		}
	}
}
