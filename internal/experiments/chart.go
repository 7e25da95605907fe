package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Chart renders one numeric column of the table as horizontal unicode
// bars, grouped by the leading label columns — a terminal rendition of the
// paper's figures. valueCol indexes the column to plot; width is the bar
// length of the maximum value.
func (t *Table) Chart(valueCol, width int) string {
	if valueCol <= 0 || valueCol >= len(t.Header) || width <= 0 {
		return ""
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
		label := strings.Join(row[:valueCol], " ")
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
