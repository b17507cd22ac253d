package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks the Go heap during a measured phase: bytes allocated
// since start, and the live heap (what the last garbage collection marked)
// sampled every 5 ms.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup

	allocStart uint64
	live       []float64 // written by the sampling goroutine until stop returns
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/live:bytes"},
}

func readHeap() (allocs, live uint64) {
	s := append([]metrics.Sample(nil), heapSamples...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.allocStart, _ = readHeap()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				_, live := readHeap()
				h.live = append(h.live, float64(live))
			}
		}
	}()
	return h
}

// finish stops sampling and returns bytes allocated and the mean live heap.
// The live heap moves in steps of one 13 MB session enclave, so its maximum
// or any high percentile flips between two steps from run to run; the mean
// moves smoothly with how long enclaves stay alive.
func (h *heapSampler) finish() (alloc uint64, live float64) {
	close(h.stop)
	h.done.Wait()
	a, l := readHeap()
	h.live = append(h.live, float64(l))
	sum := 0.0
	for _, v := range h.live {
		sum += v
	}
	return a - h.allocStart, sum / float64(len(h.live))
}
