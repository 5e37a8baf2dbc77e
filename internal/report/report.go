// Package report renders the experiment harness's result tables as aligned
// ASCII (for terminals) and CSV (for downstream plotting).
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-ordered result table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. Mixed-type rows are part of the contract — sweeps
// append summary/label rows (strings) into otherwise-numeric columns — so
// each cell is formatted by its own type:
//
//   - float64, float32: compact float formatting (fixed up to 2 decimals in
//     [0.01, 10000), scientific with 3 decimals outside; NaN/Inf spelled out)
//   - string: verbatim
//   - nil: empty cell
//   - fmt.Stringer: its String()
//   - anything else (ints, bools, ...): fmt's %v
//
// Rows shorter than the header are padded with empty cells so partial rows
// render and export with the full column count; longer rows are kept intact
// (Render and WriteCSV widen to the longest row).
func (t *Table) AddRow(cells ...interface{}) {
	n := len(cells)
	if n < len(t.Headers) {
		n = len(t.Headers)
	}
	row := make([]string, n)
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
}

func formatCell(c interface{}) string {
	switch v := c.(type) {
	case nil:
		return ""
	case float64:
		return formatFloat(v)
	case float32:
		return formatFloat(float64(v))
	case string:
		return v
	case fmt.Stringer:
		return v.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

func formatFloat(v float64) string {
	a := v
	if a < 0 {
		a = -a
	}
	switch {
	case v == 0:
		return "0"
	case a >= 10000 || a < 0.01:
		return strconv.FormatFloat(v, 'e', 3, 64)
	default:
		return strconv.FormatFloat(v, 'f', 2, 64)
	}
}

// Render writes the table as aligned ASCII. Column widths cover the longest
// row, so rows wider than the header render rather than panic.
func (t *Table) Render(w io.Writer) error {
	ncols := len(t.Headers)
	for _, row := range t.rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
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
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string, for tests and logs.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("report: render failed: %v", err)
	}
	return b.String()
}

// WriteCSV emits the table (headers + rows) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return fmt.Errorf("report: csv header: %w", err)
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
