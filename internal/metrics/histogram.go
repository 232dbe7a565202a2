package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is the latency distribution of the live stack — request
// latencies, ack waits and codec nanoseconds all use it. It is
// a fixed array of log-linear buckets over nanoseconds: 64 sub-buckets per
// power of two (a bucket is at most 1.6 % wide), exact below 64 ns,
// saturating at 2^41 ns (~37 minutes; Max stays exact beyond). Observe is a
// shift and four atomic operations — no lock, no allocation, no floating
// point — so it is safe on per-frame paths from any number of goroutines.
// The zero value is an empty histogram (18 KB; embed it or share a pointer,
// do not copy one in use).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 40
	histBuckets = (histMaxExp-histSubBits+1)*histSub + histSub
)

// histIndex maps non-negative nanoseconds to a bucket.
func histIndex(ns int64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	return (e-histSubBits+1)*histSub + int(ns>>(e-histSubBits))&(histSub-1)
}

// histUpper is the largest nanosecond value bucket i holds.
func histUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	shift := i/histSub - 1
	return int64(histSub+i%histSub+1)<<shift - 1
}

// Observe records one sample; negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Count last: a reader that loaded count finds at least that many
	// samples in the buckets, the sum and the max.
	h.buckets[histIndex(ns)].Add(1)
	h.raiseMax(ns)
	h.sum.Add(ns)
	h.count.Add(1)
}

func (h *Histogram) raiseMax(ns int64) {
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the total of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max reports the largest sample, exactly.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean reports the average sample, 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile reports an upper bound for the p-quantile: the top of the bucket
// holding the sample of rank ceil(p·n), never above the observed maximum —
// within 1.6 % of the exact value. An empty histogram reports 0; p outside
// [0,1] (or NaN) is clamped; p = 1 is the exact maximum; with a single
// sample every quantile is that sample.
func (h *Histogram) Quantile(p float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if math.IsNaN(p) || p < 0 {
		p = 0
	}
	target := int64(math.Ceil(p * float64(n)))
	if target < 1 {
		target = 1
	}
	max := h.max.Load()
	if target >= n {
		return time.Duration(max)
	}
	var seen int64
	for i := range h.buckets {
		if seen += h.buckets[i].Load(); seen >= target {
			if upper := histUpper(i); i < histBuckets-1 && upper < max {
				return time.Duration(upper)
			}
			break
		}
	}
	return time.Duration(max)
}

// Merge folds other into h. Not atomic across fields: a concurrent reader of
// h may see the merge half applied.
func (h *Histogram) Merge(other *Histogram) {
	n := other.count.Load() // first, for the same reason Observe counts last
	for i := range other.buckets {
		if c := other.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.raiseMax(other.max.Load())
	h.sum.Add(other.sum.Load())
	h.count.Add(n)
}

// WriteSummary prints a one-line summary: count, mean, p50/p95/p99, max.
func (h *Histogram) WriteSummary(w io.Writer, label string) error {
	_, err := fmt.Fprintf(w, "%-14s n=%-8d mean=%-10v p50=%-10v p95=%-10v p99=%-10v max=%v\n",
		label, h.Count(), h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.Max().Round(time.Microsecond))
	return err
}
