package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// samples is a concurrency-safe set of measurements of one quantity.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration, unit time.Duration) { s.add(float64(d) / float64(unit)) }

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// quantile returns the q-quantile by linear interpolation between the
// closest ranks; 0 for an empty set.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s *samples) median() float64 { return s.quantile(0.5) }

func (s *samples) mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.v {
		sum += x
	}
	return sum / float64(len(s.v))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes of live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// counters is a snapshot of the process-wide telemetry registry, keyed
// by series name and labels.
type counters []telemetry.Sample

func snapCounters() counters { return telemetry.Default().Snapshot() }

// sum adds up every series named name whose labels include all of
// match (key, value pairs). Histograms contribute their sum.
func (c counters) sum(name string, match ...string) float64 {
	total := 0.0
next:
	for _, s := range c {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			found := false
			for _, l := range s.Labels {
				if l.Key == match[i] && l.Value == match[i+1] {
					found = true
				}
			}
			if !found {
				continue next
			}
		}
		total += s.Value
	}
	return total
}

// delta returns after.sum - before.sum for one series selection.
func delta(before, after counters, name string, match ...string) float64 {
	return after.sum(name, match...) - before.sum(name, match...)
}
