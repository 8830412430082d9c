// Package report renders the analysis results as text tables laid
// out like the paper's Tables 1–7 and as plain data series for
// Figure 1, with the paper's published values alongside the measured
// ones so reproduction quality is visible at a glance.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Pct formats a fraction as a percentage.
func Pct(f float64) string { return fmt.Sprintf("%.0f%%", 100*f) }

// Num formats an integer with thousands separators, as the paper
// prints counts.
func Num(n int) string { return string(appendNum(nil, n)) }

func appendNum(b []byte, n int) []byte {
	u := uint64(n)
	if n < 0 {
		b, u = append(b, '-'), -u
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for i, c := range d {
		if i > 0 && (len(d)-i)%3 == 0 {
			b = append(b, ',')
		}
		b = append(b, c)
	}
	return b
}

// F1 formats a float with one decimal.
func F1(f float64) string { return fmt.Sprintf("%.1f", f) }
