package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Chart renders one numeric column of the table as horizontal unicode
// bars, grouped by the leading label columns — a terminal rendition of the
// paper's figures. valueCol indexes the column to plot; width is the bar
// length of the maximum value. A bar's label joins its row's label columns
// before valueCol (see labelColumn), so a measured column never shows up in
// a label.
func (t *Table) Chart(valueCol, width int) string {
	if valueCol <= 0 || valueCol >= len(t.Header) || width <= 0 {
		return ""
	}
	var labelCols []int
	for col := 0; col < valueCol; col++ {
		if t.labelColumn(col) {
			labelCols = append(labelCols, col)
		}
	}
	type bar struct {
		label string
		value float64
		ok    bool
	}
	var bars []bar
	maxVal := 0.0
	labelWidth := 0
	for _, row := range t.Rows {
		parts := make([]string, len(labelCols))
		for i, col := range labelCols {
			parts[i] = row[col]
		}
		label := strings.Join(parts, " ")
		// Skip paper-reference rows; they are context, not data.
		if strings.Contains(label, "(paper)") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[valueCol], "%"), 64)
		b := bar{label: label, value: v, ok: err == nil}
		if b.ok && v > maxVal {
			maxVal = v
		}
		if len(label) > labelWidth {
			labelWidth = len(label)
		}
		bars = append(bars, b)
	}
	if maxVal == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Header[valueCol])
	for _, b := range bars {
		if !b.ok {
			fmt.Fprintf(&sb, "  %-*s  %s\n", labelWidth, b.label, "-")
			continue
		}
		n := int(b.value / maxVal * float64(width))
		if n == 0 && b.value > 0 {
			n = 1
		}
		fmt.Fprintf(&sb, "  %-*s  %s %.4g\n", labelWidth, b.label,
			strings.Repeat("█", n)+strings.Repeat("░", width-n), b.value)
	}
	return sb.String()
}

// labelColumn reports whether column col labels the rows rather than
// measuring them: none of its cells is a number other than an integer. Text,
// such as a model name, and integers only, such as a batch size, are
// labels; a column of measured values is not, even where some of its cells
// are "-".
func (t *Table) labelColumn(col int) bool {
	for _, row := range t.Rows {
		cell := row[col]
		if _, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64); err == nil {
			if _, err := strconv.Atoi(cell); err != nil {
				return false
			}
		}
	}
	return true
}

// DefaultChartColumn picks which column of a figure experiment to chart:
// the first measured column, that is the first mostly-numeric column after
// the labels. A column of integers only, such as a batch size, is a label,
// not a measurement. Returns 0 when the table has nothing chartable.
func (t *Table) DefaultChartColumn() int {
	if len(t.Rows) == 0 {
		return 0
	}
	for col := 1; col < len(t.Header); col++ {
		numeric, integers := 0, 0
		for _, row := range t.Rows {
			if col >= len(row) {
				return 0
			}
			if _, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64); err == nil {
				numeric++
			}
			if _, err := strconv.Atoi(row[col]); err == nil {
				integers++
			}
		}
		if numeric > len(t.Rows)/2 && integers < len(t.Rows) {
			return col
		}
	}
	return 0
}
