package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"codetomo/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata/ctbench.golden")

// masked returns a copy of t with every host-time cell replaced by "~",
// leaving only the cells a fixed configuration determines.
func masked(t *report.Table) *report.Table {
	m := *t
	m.Rows = make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		m.Rows[r] = append([]string(nil), row...)
		for _, c := range t.HostTime {
			if c < len(row) {
				m.Rows[r][c] = "~"
			}
		}
	}
	return &m
}

// TestCtbenchGolden pins every reconstructed table and figure: each
// experiment runs at DefaultConfig with 400 samples, and its rendering,
// host-time columns masked, must match testdata/ctbench.golden exactly.
// Run with -update after an intended change to an experiment's output.
func TestCtbenchGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the experiments take minutes under the race detector; the shape tests cover them there")
	}
	c := DefaultConfig()
	c.Samples = 400
	var b strings.Builder
	for _, e := range Experiments() {
		tab, err := e.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&b, "## %s: %s\n%s\n", e.ID, e.Title, masked(tab).Render())
	}
	got := b.String()

	golden := filepath.Join("testdata", "ctbench.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < max(len(gl), len(wl)); i++ {
		g, w := line(gl, i), line(wl, i)
		if strings.HasPrefix(w, "## ") {
			section = w
		}
		if g != w {
			t.Fatalf("ctbench output drifted from %s at line %d (in %q):\n  got:  %q\n  want: %q",
				golden, i+1, section, g, w)
		}
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
