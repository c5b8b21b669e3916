package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// The exit contract: -h 0, a run 0, a runtime failure 1, and a usage
// error 2 naming the flag.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "usage: ctbench"},
		{"run", []string{"-exp", "t1", "-samples", "50", "-predictor", "btfn"}, 0, ""},
		{"unwritable profile", []string{"-exp", "t1", "-cpuprofile", filepath.Join(t.TempDir(), "no", "cpu.pprof")}, 1, "cpu.pprof"},
		{"negative samples", []string{"-samples", "-5"}, 2, "-samples"},
		{"negative tick", []string{"-tick", "-3"}, 2, "-tick"},
		{"unknown experiment", []string{"-exp", "z9"}, 2, "-exp"},
		{"unknown predictor", []string{"-predictor", "oracle"}, 2, "-predictor"},
		{"stray argument", []string{"t1"}, 2, "no arguments"},
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

func TestRunJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "t1", "-samples", "50", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	var tables []struct{ ID string }
	if err := json.Unmarshal(stdout.Bytes(), &tables); err != nil || len(tables) != 1 || tables[0].ID != "t1" {
		t.Fatalf("want one t1 table, got %+v (%v)\n%s", tables, err, stdout.String())
	}
}
