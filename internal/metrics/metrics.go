// Package metrics provides the lightweight instrumentation used by every
// experiment harness: atomic counters and gauges, log-bucketed latency
// histograms with quantile estimation, and fixed-width table rendering for
// the paper-style result tables cmd/unbundle-bench prints.
//
// The package is deliberately allocation-light so that instrumenting the
// pubsub broker or the watch hub does not distort the measurements it exists
// to take.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (delta may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max atomically raises the gauge to n if n is larger.
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// histBuckets is the number of sub-buckets per power of two. 16 sub-buckets
// give ~6% relative error on quantiles, plenty for shape comparisons.
const histSubBuckets = 16

// Histogram records positive int64 observations (typically nanoseconds) in
// logarithmic buckets. It is safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets map[int32]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make(map[int32]int64), min: math.MaxInt64}
}

// bucketOf maps v to a logarithmic bucket index.
func bucketOf(v int64) int32 {
	if v < 1 {
		v = 1
	}
	exp := 63 - int32(leadingZeros(uint64(v)))
	// Sub-bucket within the power of two.
	var sub int64
	if exp > 4 {
		sub = (v >> (exp - 4)) & (histSubBuckets - 1)
	} else {
		sub = v & (histSubBuckets - 1)
	}
	return exp*histSubBuckets + int32(sub)
}

// bucketLow returns a representative value (lower bound) for bucket index b.
func bucketLow(b int32) int64 {
	exp := b / histSubBuckets
	sub := int64(b % histSubBuckets)
	if exp > 4 {
		return (1 << uint(exp)) | (sub << uint(exp-4))
	}
	return (1 << uint(exp)) | sub
}

func leadingZeros(v uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1). Within-bucket error is
// bounded by the sub-bucket width (~6%).
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	idxs := make([]int32, 0, len(h.buckets))
	for b := range h.buckets {
		idxs = append(idxs, b)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var seen int64
	for _, b := range idxs {
		seen += h.buckets[b]
		if seen > target {
			return bucketLow(b)
		}
	}
	return h.max
}

// Snapshot is a point-in-time summary of a histogram.
type Snapshot struct {
	Count         int64
	Mean          float64
	Min, P50, P90 int64
	P99, Max      int64
}

// Snapshot returns a summary of the histogram.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P90:   h.Quantile(0.9),
		P99:   h.Quantile(0.99),
	}
	h.mu.Lock()
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	h.mu.Unlock()
	return s
}

// DurString formats a nanosecond value as a human duration.
func DurString(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
