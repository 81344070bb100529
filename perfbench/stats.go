package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// windowQuantile splits xs, in the order they were measured, into
// consecutive windows of size samples (the remainder joins the last one),
// takes the q-quantile of each window and returns the median of those. On
// a shared machine a stall of the host lifts the tail of the windows it
// falls in; the median across windows leaves them out, where the quantile
// of the whole run moves with the number of stalls the run happened to
// meet.
func windowQuantile(xs []float64, size int, q float64) float64 {
	n := max(len(xs)/size, 1)
	per := make([]float64, 0, n)
	for i := range n {
		hi := (i + 1) * size
		if i == n-1 {
			hi = len(xs)
		}
		per = append(per, quantile(xs[i*size:hi], q))
	}
	return quantile(per, 0.5)
}

// trimmedMean returns the mean of xs without its lowest and highest share
// trim of values (0 when empty). Recovery times on a shared machine mix a
// fast and a slow mode whose proportions change from run to run; the mean
// follows that proportion smoothly where the median jumps between modes,
// and the trimming keeps a lone stall from moving it.
func trimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
