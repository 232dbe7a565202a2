package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyHistogramBasics(t *testing.T) {
	h := new(Histogram)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Mean(); got != 20*time.Millisecond {
		t.Errorf("Mean = %v", got)
	}
	if got := h.Max(); got != 30*time.Millisecond {
		t.Errorf("Max = %v", got)
	}
}

func TestLatencyHistogramNegativeClamped(t *testing.T) {
	h := new(Histogram)
	h.Observe(-time.Second)
	if h.Max() != 0 {
		t.Errorf("negative sample recorded as %v", h.Max())
	}
}

func TestLatencyHistogramQuantileAccuracy(t *testing.T) {
	// Against an exact sort of 10^5 log-normal samples (median 1ms, σ = 2
	// — five decades): every reported quantile is an upper bound no more than
	// 2 % above the exact order statistic.
	rng := rand.New(rand.NewSource(5))
	h := new(Histogram)
	samples := make([]time.Duration, 100000)
	for i := range samples {
		samples[i] = time.Duration(float64(time.Millisecond) * math.Exp(2*rng.NormFloat64()))
		h.Observe(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := samples[int(math.Ceil(p*float64(len(samples))))-1]
		got := h.Quantile(p)
		if got < exact || float64(got) > 1.02*float64(exact) {
			t.Errorf("p%v: histogram %v vs exact %v (ratio %.4f)", p, got, exact, float64(got)/float64(exact))
		}
	}
	if h.Quantile(1.0) != h.Max() || h.Max() != samples[len(samples)-1] {
		t.Errorf("Quantile(1) = %v, Max = %v, want the exact maximum %v", h.Quantile(1.0), h.Max(), samples[len(samples)-1])
	}
}

// TestHistogramBucketsPartition pins the bucket layout: indices ascend with
// the value, every value lies at or below its bucket's upper edge, and the
// edge is within 1/64 of it.
func TestHistogramBucketsPartition(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096, 1e6, 1e9 + 7, 1 << 40, 1<<41 - 1} {
		i := histIndex(ns)
		if i < prev {
			t.Errorf("histIndex(%d) = %d, below the previous value's %d", ns, i, prev)
		}
		prev = i
		up := histUpper(i)
		if up < ns || float64(up-ns) > float64(ns)/histSub {
			t.Errorf("ns %d: bucket %d upper edge %d", ns, i, up)
		}
		if i+1 < histBuckets && histIndex(up+1) != i+1 {
			t.Errorf("bucket %d: upper edge %d, but %d maps to bucket %d", i, up, up+1, histIndex(up+1))
		}
	}
	if got := histIndex(math.MaxInt64); got != histBuckets-1 {
		t.Errorf("histIndex(MaxInt64) = %d, want the saturating bucket %d", got, histBuckets-1)
	}
}

func TestLatencyHistogramMerge(t *testing.T) {
	a, b, all := new(Histogram), new(Histogram), new(Histogram)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		if i%3 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
		all.Observe(d)
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() || a.Max() != all.Max() || a.Mean() != all.Mean() {
		t.Errorf("merged count/sum/max/mean = %d/%v/%v/%v, want %d/%v/%v/%v",
			a.Count(), a.Sum(), a.Max(), a.Mean(), all.Count(), all.Sum(), all.Max(), all.Mean())
	}
	for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, want := a.Quantile(p), all.Quantile(p); got != want {
			t.Errorf("merged Quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if b.Count() == 0 || b.Count() == all.Count() {
		t.Errorf("Merge modified its argument: count %d", b.Count())
	}
}

// TestLatencyHistogramConcurrent observes from eight goroutines while a
// ninth reads; run under -race it pins that Observe needs no lock.
func TestLatencyHistogramConcurrent(t *testing.T) {
	h := new(Histogram)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n, q := h.Count(), h.Quantile(0.99); n > 0 && (q <= 0 || q > time.Millisecond) {
				t.Errorf("mid-run Quantile(0.99) = %v with %d samples", q, n)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if h.Count() != 8000 {
		t.Errorf("Count = %d", h.Count())
	}
	if want := 8 * 500500 * time.Microsecond; h.Sum() != want {
		t.Errorf("Sum = %v, want %v", h.Sum(), want)
	}
	if h.Max() != time.Millisecond {
		t.Errorf("Max = %v", h.Max())
	}
	if got := h.Quantile(0.5); got < 500*time.Microsecond || got > 510*time.Microsecond {
		t.Errorf("Quantile(0.5) = %v, want ~500µs", got)
	}
}

func TestLatencyHistogramSummary(t *testing.T) {
	h := new(Histogram)
	h.Observe(time.Millisecond)
	var sb strings.Builder
	if err := h.WriteSummary(&sb, "reads"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"reads", "n=1", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
}

func TestLatencyHistogramQuantileEdgeCases(t *testing.T) {
	sample := 42 * time.Millisecond
	single := new(Histogram)
	single.Observe(sample)
	many := new(Histogram)
	for _, d := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		many.Observe(d)
	}
	huge := new(Histogram)
	huge.Observe(200 * 365 * 24 * time.Hour) // bucket bound would overflow time.Duration

	tests := []struct {
		name string
		h    *Histogram
		p    float64
		want time.Duration
		// upTo allows bucket slack: want <= got <= upTo.
		upTo time.Duration
	}{
		{name: "empty p0", h: new(Histogram), p: 0, want: 0},
		{name: "empty p50", h: new(Histogram), p: 0.5, want: 0},
		{name: "empty p100", h: new(Histogram), p: 1, want: 0},
		{name: "single p0", h: single, p: 0, want: sample},
		{name: "single p50", h: single, p: 0.5, want: sample},
		{name: "single p100", h: single, p: 1, want: sample},
		{name: "single NaN", h: single, p: math.NaN(), want: sample},
		{name: "single below range", h: single, p: -3, want: sample},
		{name: "single above range", h: single, p: 7, want: sample},
		{name: "many p0 is smallest bucket", h: many, p: 0,
			want: time.Millisecond, upTo: 2 * time.Millisecond},
		{name: "many p100 is exact max", h: many, p: 1, want: 100 * time.Millisecond},
		{name: "overflowing bucket falls back to max", h: huge, p: 0.99,
			want: 200 * 365 * 24 * time.Hour},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.h.Quantile(tc.p)
			hi := tc.upTo
			if hi == 0 {
				hi = tc.want
			}
			// A single sample caps every quantile at the observed max, so
			// these are exact; multi-sample cases allow the bucket slack
			// declared via upTo.
			if got < tc.want || got > hi {
				t.Errorf("Quantile(%v) = %v, want in [%v, %v]", tc.p, got, tc.want, hi)
			}
		})
	}
}

func TestLatencyHistogramSum(t *testing.T) {
	h := new(Histogram)
	if h.Sum() != 0 {
		t.Fatalf("empty Sum = %v", h.Sum())
	}
	h.Observe(time.Second)
	h.Observe(2 * time.Second)
	if got := h.Sum(); got != 3*time.Second {
		t.Errorf("Sum = %v, want 3s", got)
	}
}
