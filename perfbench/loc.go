package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// locPackages maps each loc.<layer> metric to its package directory.
var locPackages = map[string]string{
	"loc.codetomo":   ".",
	"loc.compile":    "internal/compile",
	"loc.mote":       "internal/mote",
	"loc.trace":      "internal/trace",
	"loc.tomography": "internal/tomography",
	"loc.markov":     "internal/markov",
	"loc.layout":     "internal/layout",
	"loc.fleet":      "internal/fleet",
	"loc.station":    "internal/station",
}

// countLines returns the newline count of every non-test .go file directly
// in dir.
func countLines(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += bytes.Count(b, []byte("\n"))
	}
	return n, nil
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// lineCounts measures the non-test Go line count of each layer package and
// of the whole module (the benchmark's own directory and build outputs
// excluded).
func lineCounts(root string) (passValues, error) {
	out := make(passValues)
	for name, dir := range locPackages {
		n, err := countLines(filepath.Join(root, dir))
		if err != nil {
			return nil, err
		}
		out[name] = float64(n)
	}
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !isSourceFile(d.Name()) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += bytes.Count(b, []byte("\n"))
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["loc.total"] = float64(total)
	return out, nil
}
