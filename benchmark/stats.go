package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted samples by
// linear interpolation between closest ranks; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercentile is the percentile a timing's tail is reported at: the
// highest percentile with at least ten samples beyond it, capped at p95
// and never below the upper quartile (a run with under forty samples
// cannot support more than that).
func tailPercentile(n int) float64 {
	if n <= 0 {
		return 75
	}
	p := 100 * float64(n-10) / float64(n)
	return math.Min(95, math.Max(75, p))
}

// dist summarises one run's samples of a timing.
type dist struct {
	N       int     `json:"n"`
	Q1      float64 `json:"q1"`
	P50     float64 `json:"p50"`
	Q3      float64 `json:"q3"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

func summarize(samples []float64) dist {
	s := sorted(samples)
	tp := tailPercentile(len(s))
	return dist{
		N:       len(s),
		Q1:      percentile(s, 25),
		P50:     percentile(s, 50),
		Q3:      percentile(s, 75),
		Tail:    percentile(s, tp),
		TailPct: tp,
	}
}

func median(samples []float64) float64 { return percentile(sorted(samples), 50) }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartilesExclusive returns the cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// how the driver measures run-to-run spread. It needs two values.
func quartilesExclusive(values []float64) (q1, q2, q3 float64) {
	s := sorted(values)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile of the
// values as a share of their median, as the driver computes it.
func spread(values []float64) float64 {
	q1, _, q3 := quartilesExclusive(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
