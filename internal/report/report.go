// Package report renders the evaluation harness's results as aligned text
// tables (for the terminal and EXPERIMENTS.md) and CSV (for plotting).
package report

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a titled grid of results. The JSON tags define the
// machine-readable form `ctbench -json` emits.
type Table struct {
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// HostTime lists the indices of the columns that hold host wall-clock
	// measurements. They are the only cells that vary between runs at a
	// fixed configuration, so golden comparisons mask them.
	HostTime []int `json:"host_time,omitempty"`
}

// AddRow appends a row of stringable cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns the table as aligned monospace text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			// Right-align numbers, left-align text.
			if isNumeric(c) {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
			} else {
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// CSV returns the table as comma-separated values (header + rows).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func isNumeric(s string) bool {
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	if s == "" {
		return false
	}
	_, err := strconv.ParseFloat(strings.ReplaceAll(s, "x", ""), 64)
	return err == nil
}

// F formats a float with the given decimals.
func F(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// I formats an integer.
func I[T ~int | ~int32 | ~int64 | ~uint32 | ~uint64 | ~uint](v T) string {
	return fmt.Sprintf("%d", v)
}

// Pct formats a ratio as a percentage with 2 decimals.
func Pct(v float64) string { return F(100*v, 2) + "%" }

// KV builds a two-column metric/value table — the shape observability
// summaries (fleet uplink accounting, estimator effort) render as.
func KV(title string, pairs ...[2]string) *Table {
	t := &Table{Title: title, Header: []string{"metric", "value"}}
	for _, p := range pairs {
		t.AddRow(p[0], p[1])
	}
	return t
}
