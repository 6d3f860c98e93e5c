package stats

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table renders aligned plain-text tables — the output format of the
// dimabench experiment reports — and can emit the same rows as CSV.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; cells are formatted with %v. Rows shorter or
// longer than the header are padded or truncated to fit.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			switch v := cells[i].(type) {
			case float64:
				row[i] = trimFloat(v)
			default:
				row[i] = fmt.Sprintf("%v", v)
			}
		}
	}
	t.rows = append(t.rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Write renders the table with aligned columns to w.
func (t *Table) Write(w io.Writer) error {
	width := utf8.RuneCountInString
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = width(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if width(c) > widths[i] {
				widths[i] = width(c)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-width(c)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.headers); err != nil {
		return err
	}
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the table as RFC-4180-ish CSV (quoting cells that
// contain commas, quotes, or newlines).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			parts[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// String renders the aligned table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Write(&b); err != nil {
		return fmt.Sprintf("table error: %v", err)
	}
	return b.String()
}
