// Package metrics provides the small statistics and text-rendering toolkit
// used by the experiment harness: empirical distributions (percentiles,
// CDFs) and aligned text tables for regenerating the paper's figures as
// terminal output.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dist accumulates samples of one scalar metric.
type Dist struct {
	xs     []float64
	sorted bool
}

// Add appends a sample.
func (d *Dist) Add(v float64) {
	d.xs = append(d.xs, v)
	d.sorted = false
}

// N returns the sample count.
func (d *Dist) N() int { return len(d.xs) }

// Sum returns the sample total.
func (d *Dist) Sum() float64 {
	var s float64
	for _, v := range d.xs {
		s += v
	}
	return s
}

// Mean returns the sample mean (0 for empty).
func (d *Dist) Mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	return d.Sum() / float64(len(d.xs))
}

// Max returns the largest sample (0 for empty).
func (d *Dist) Max() float64 {
	m := 0.0
	for i, v := range d.xs {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) with linear
// interpolation; 0 for empty distributions.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	d.ensureSorted()
	if p <= 0 {
		return d.xs[0]
	}
	if p >= 100 {
		return d.xs[len(d.xs)-1]
	}
	pos := p / 100 * float64(len(d.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return d.xs[lo]
	}
	t := pos - float64(lo)
	return d.xs[lo]*(1-t) + d.xs[hi]*t
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	Y float64 // fraction of samples ≤ X
}

// CDF returns up to n evenly spaced CDF points (all points if n ≤ 0 or the
// sample is small).
func (d *Dist) CDF(n int) []CDFPoint {
	if len(d.xs) == 0 {
		return nil
	}
	d.ensureSorted()
	m := len(d.xs)
	if n <= 0 || n > m {
		n = m
	}
	pts := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		idx := (i + 1) * m / n
		if idx > m {
			idx = m
		}
		pts = append(pts, CDFPoint{X: d.xs[idx-1], Y: float64(idx) / float64(m)})
	}
	return pts
}

// FractionAbove returns the fraction of samples strictly greater than x.
func (d *Dist) FractionAbove(x float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	d.ensureSorted()
	i := sort.SearchFloat64s(d.xs, math.Nextafter(x, math.Inf(1)))
	return float64(len(d.xs)-i) / float64(len(d.xs))
}

// Table renders aligned text tables for harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends one row; values are formatted with %v (floats with %.4g).
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// RenderCDF prints a CDF as "x y" rows suitable for plotting, labelling the
// series.
func RenderCDF(label string, pts []CDFPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# series: %s\n", label)
	for _, p := range pts {
		fmt.Fprintf(&b, "%.6g %.4f\n", p.X, p.Y)
	}
	return b.String()
}

// SafeRatio returns num/den, or def when den is 0.
func SafeRatio(num, den, def float64) float64 {
	if den == 0 {
		return def
	}
	return num / den
}
