package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// Runtime metrics the benchmark reads. All exist since Go 1.22.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mHeap     = "/memory/classes/heap/objects:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCPauses = "/sched/pauses/total/gc:seconds"
)

// heapAllocs returns the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: mAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcStats returns the cumulative GC cycle count and an estimate of the total
// stop-the-world GC pause time in seconds (each histogram bucket counted at
// its lower bound, so the estimate never overstates).
func gcStats() (cycles uint64, pauseS float64) {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCPauses}}
	metrics.Read(s)
	h := s[1].Value.Float64Histogram()
	for i, c := range h.Counts {
		if lo := h.Buckets[i]; c > 0 && lo > 0 {
			pauseS += float64(c) * lo
		}
	}
	return s[0].Value.Uint64(), pauseS
}

// iteration is one measured call: its wall time, the heap bytes it
// allocated, and the largest live heap seen while it ran.
type iteration struct {
	wall  time.Duration
	alloc uint64
	peak  uint64
}

// peakEvery is the live-heap sampling period during a measured call.
const peakEvery = 5 * time.Millisecond

// measure runs f after a forced GC and returns its wall time, its heap
// allocation delta, and the peak live heap sampled every peakEvery while it
// ran. The sampler goroutine has exited when measure returns.
func measure(f func() error) (iteration, error) {
	runtime.GC()
	stop := make(chan struct{})
	peakc := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: mHeap}}
		var peak uint64
		t := time.NewTicker(peakEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				peakc <- peak
				return
			case <-t.C:
			}
		}
	}()
	before := heapAllocs()
	start := time.Now()
	err := f()
	wall := time.Since(start)
	after := heapAllocs()
	close(stop)
	return iteration{wall: wall, alloc: after - before, peak: <-peakc}, err
}
