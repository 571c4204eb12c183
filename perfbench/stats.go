package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	rmetrics "repro/internal/metrics"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// window is the sample count of one window of the windowed statistics:
// large enough that a window's p99 is its top 1%, small enough that a run
// has many windows.
const window = 100

// windowBounds cuts n samples into contiguous windows of about window
// samples each (one window when there are fewer than two).
func windowBounds(n int) []int {
	k := n / window
	if k < 2 {
		k = 1
	}
	b := make([]int, k+1)
	for i := range b {
		b[i] = i * n / k
	}
	return b
}

// windowed returns the over-quantile, across windows of xs, of each
// window's q-quantile. With over = 0.5 it is the tail a typical stretch of
// the run shows, which a stall hitting a few windows cannot move on its own.
func windowed(xs []float64, q, over float64) float64 {
	b := windowBounds(len(xs))
	vals := make([]float64, len(b)-1)
	for i := range vals {
		vals[i] = quantile(xs[b[i]:b[i+1]], q)
	}
	return quantile(vals, over)
}

// tail is the reported tail percentile: the lower quartile, across windows,
// of each window's q-quantile. On a shared VM, host CPU steal comes in
// bursts of seconds to minutes and lifts the tail of every window a burst
// covers, often most of a run; the quieter quarter of the windows reads
// what the program itself does. A tail the program causes shows in every
// window and moves it.
func tail(xs []float64, q float64) float64 { return windowed(xs, q, 0.25) }

// cycleRate returns the median, over consecutive windows of size samples,
// of Σcounts/Σsecs. A window of one whole input cycle holds every batch size
// once, so each window's rate is comparable, and one stalled stretch moves
// only the few windows it falls in.
func cycleRate(counts, secs []float64, size int) float64 {
	if len(counts) == 0 {
		return 0
	}
	if size < 1 || size > len(counts) {
		size = len(counts)
	}
	var vals []float64
	for lo := 0; lo+size <= len(counts); lo += size {
		var c, t float64
		for j := lo; j < lo+size; j++ {
			c += counts[j]
			t += secs[j]
		}
		vals = append(vals, ratio(c, t))
	}
	return median(vals)
}

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler tracks the peak live-heap size while it runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// allocMeter measures heap allocations across a region of code.
type allocMeter struct{ before runtime.MemStats }

func startAllocs() *allocMeter {
	a := &allocMeter{}
	runtime.ReadMemStats(&a.before)
	return a
}

// perOp returns bytes and allocations per operation since startAllocs.
func (a *allocMeter) perOp(ops int) (bytes, allocs float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops == 0 {
		return 0, 0
	}
	return float64(after.TotalAlloc-a.before.TotalAlloc) / float64(ops),
		float64(after.Mallocs-a.before.Mallocs) / float64(ops)
}

// histDelta returns the observations recorded between two snapshots of the
// same histogram.
func histDelta(before, after rmetrics.HistogramSnapshot) rmetrics.HistogramSnapshot {
	d := rmetrics.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i := range d.Buckets {
		d.Buckets[i] = after.Buckets[i] - before.Buckets[i]
	}
	return d
}
