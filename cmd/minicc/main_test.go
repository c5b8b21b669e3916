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
	if (sense() > 500) {
		debug(1);
	}
}`

// The exit contract: -h 0, a build 0, a runtime failure 1, and a usage
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
		stdout string
		stderr string
	}{
		{"help", []string{"-h"}, 0, "", "usage: minicc"},
		{"stats", []string{"-stats", "-instrument", "counters", "-fuse", "-rotate", prog}, 0, "arc counters:", ""},
		{"dot", []string{"-dot", "main", prog}, 0, "digraph", ""},
		{"missing file", []string{filepath.Join(dir, "nope.mc")}, 1, "", "nope.mc"},
		{"unknown procedure", []string{"-dot", "nosuch", prog}, 1, "", "nosuch"},
		{"unknown instrumentation", []string{"-instrument", "sampling", prog}, 2, "", "-instrument"},
		{"two files", []string{prog, prog}, 2, "", "one source file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit = %d, want %d\nstderr: %s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stdout does not contain %q or stderr %q:\n%s\n%s", tc.stdout, tc.stderr, stdout.String(), stderr.String())
			}
		})
	}
}
