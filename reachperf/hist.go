package main

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// hist is a constant-memory log-linear latency histogram: exact below
// 128 ns, then 64 sub-buckets per power of two (under 1.6% relative
// error) up to about 9 hours. A failed operation is recorded with fail
// and counts as +Inf, so a percentile that lands on a failure reads
// +Inf.
type hist struct {
	counts [histSize]uint64
	n      uint64
	inf    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histHalf    = histSub / 2
	histMaxExp  = 45 - histSubBits
	histSize    = histSub + histMaxExp*histHalf
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - histSubBits
	if e > histMaxExp {
		return histSize - 1
	}
	m := int(uint64(ns) >> uint(e))
	return histSub + (e-1)*histHalf + (m - histHalf)
}

// histValue is the midpoint of bucket i in nanoseconds.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := (i-histSub)/histHalf + 1
	m := uint64((i-histSub)%histHalf + histHalf)
	lo := m << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

func (h *hist) record(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *hist) fail() { h.inf++ }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.inf += o.inf
}

// total is the number of samples, failures included.
func (h *hist) total() uint64 { return h.n + h.inf }

// quantile returns the q-quantile in nanoseconds: the value of the
// sample of rank ceil(q·total). Failures sort last, as +Inf. It
// returns 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	total := h.total()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		return math.Inf(1)
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return histValue(i)
		}
	}
	return math.Inf(1)
}

// syncHist is a hist shared between goroutines.
type syncHist struct {
	mu sync.Mutex
	h  hist
}

func (s *syncHist) record(d time.Duration) {
	s.mu.Lock()
	s.h.record(d)
	s.mu.Unlock()
}

func (s *syncHist) reset() {
	s.mu.Lock()
	s.h = hist{}
	s.mu.Unlock()
}

func (s *syncHist) snapshot() hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h
}
