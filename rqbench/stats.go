package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (q in (0, 1]): with n
// samples, p99 leaves n/100 samples above it. NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// recorder collects per-kind latencies, byte counts and outcomes. Safe for
// concurrent use by the benchmark's client goroutines.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // milliseconds
	opBytes   map[string][]int64   // bytes moved, aligned with lat
	busy      map[string]time.Duration
	attempted map[string]int
	failed    map[string]int
	firstErr  error
	spans     *tracer // when set, every operation is also a span
}

func newRecorder() *recorder {
	return &recorder{
		lat:       map[string][]float64{},
		opBytes:   map[string][]int64{},
		busy:      map[string]time.Duration{},
		attempted: map[string]int{},
		failed:    map[string]int{},
	}
}

// time runs fn as one operation of kind, recording its latency and n bytes
// on success and a failure otherwise.
func (r *recorder) time(kind string, n int64, fn func() error) error {
	start := time.Now()
	err := fn()
	return r.record(kind, n, time.Since(start), err)
}

// record files one operation of kind that took d and ended with err.
func (r *recorder) record(kind string, n int64, d time.Duration, err error) error {
	if r.spans != nil {
		r.spans.op(kind, d)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted[kind]++
	if err != nil {
		r.failed[kind]++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return err
	}
	r.lat[kind] = append(r.lat[kind], float64(d.Nanoseconds())/1e6)
	r.opBytes[kind] = append(r.opBytes[kind], n)
	r.busy[kind] += d
	return nil
}

func (r *recorder) totals() (attempted, failed int) {
	for k, n := range r.attempted {
		attempted += n
		failed += r.failed[k]
	}
	return attempted, failed
}

// opsPerSecond is completed operations per second of time spent inside
// operations.
func (r *recorder) opsPerSecond() float64 {
	var n int
	var busy time.Duration
	for k, xs := range r.lat {
		n += len(xs)
		busy += r.busy[k]
	}
	return float64(n) / busy.Seconds()
}

// mbPerSecond is the median over operations of kinds of MB (1e6 bytes)
// moved per second: robust to the odd stall, which a ratio of totals is
// not.
func (r *recorder) mbPerSecond(kinds ...string) float64 {
	var rates []float64
	for _, k := range kinds {
		for i, ms := range r.lat[k] {
			rates = append(rates, float64(r.opBytes[k][i])/1e3/ms)
		}
	}
	return median(rates)
}

func (r *recorder) samples(kinds ...string) []float64 {
	var out []float64
	for _, k := range kinds {
		out = append(out, r.lat[k]...)
	}
	return out
}
