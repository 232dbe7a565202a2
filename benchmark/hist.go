package main

import (
	"math/bits"
	"sort"
)

// hist is the benchmark's own latency histogram: fixed log-linear buckets
// over nanoseconds, 64 sub-buckets per power of two (bucket width ≤ 1.6 % of
// its value), exact below 64 ns, saturating at ~18 minutes. Recording is one
// shift and one increment, so timing an operation costs the two clock reads
// and nothing else; quantiles interpolate inside the bucket so two runs do
// not collapse onto the same bucket edge.
type hist struct {
	n      uint64
	sum    int64 // exact, for the mean
	counts [histBuckets]uint32
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 40
	histBuckets = (histMaxExp-histSubBits+1)*histSub + histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	sub := int(ns>>(e-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// histBounds returns bucket i's lower edge and width in nanoseconds.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	return float64(int64(histSub+i%histSub) << shift), float64(int64(1) << shift)
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// mean returns the mean in nanoseconds, 0 when empty.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, width := histBounds(i)
			return lo + width*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// median is the exact median of a short series (the per-segment values, the
// isolated measurements' batches), 0 when empty. It sorts s in place.
func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	if mid := len(s) / 2; len(s)%2 == 1 {
		return s[mid]
	} else {
		return (s[mid-1] + s[mid]) / 2
	}
}

// medianNs is the median of the traced run's samples, which are whole
// nanoseconds: a value v stands for [v-0.5, v+0.5) and the median
// interpolates inside the run of samples equal to it, as quantile does
// inside a bucket, so a median of 300 ns steps does not read 0.3 µs on every
// run. It sorts ns in place.
func medianNs(ns []float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Float64s(ns)
	rank := 0.5 * float64(len(ns)-1)
	v := ns[int(rank)]
	lo := sort.SearchFloat64s(ns, v)
	hi := lo + sort.SearchFloat64s(ns[lo:], v+0.5)
	return v - 0.5 + (rank-float64(lo)+0.5)/float64(hi-lo)
}
