package main

import (
	"math"
	"testing"
	"time"
)

func TestHistBucketsRoundTrip(t *testing.T) {
	for _, ns := range []int64{0, 1, 127, 128, 129, 1000, 75_000, 1_234_567, 20_000_000, 3e12} {
		got := histValue(histIndex(ns))
		if rel := math.Abs(got-float64(ns)) / math.Max(float64(ns), 1); rel > 0.016 {
			t.Errorf("value(index(%d)) = %.0f, %.3f off", ns, got, rel)
		}
	}
	if i := histIndex(math.MaxInt64); i != histSize-1 {
		t.Errorf("index(max) = %d, want the last bucket %d", i, histSize-1)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 100; i++ {
		h.record(time.Duration(i) * time.Millisecond)
	}
	if p50 := h.quantile(0.5) / 1e6; math.Abs(p50-50) > 1 {
		t.Errorf("p50 = %.2f ms, want 50", p50)
	}
	if p99 := h.quantile(0.99) / 1e6; math.Abs(p99-99) > 2 {
		t.Errorf("p99 = %.2f ms, want 99", p99)
	}
	// Two failures out of 102 samples: the p99 lands on one (+Inf),
	// the median does not.
	h.fail()
	h.fail()
	if !math.IsInf(h.quantile(0.99), 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", h.quantile(0.99))
	}
	if math.IsInf(h.quantile(0.5), 1) {
		t.Error("p50 with 2% failures is +Inf")
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram quantile is not 0")
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder(time.Now(), 8)
	r.push(lTxn)
	r.push(lOODB)
	r.push(lEmit)
	time.Sleep(2 * time.Millisecond)
	r.pop()
	r.pop()
	r.pop()
	if r.count[lTxn] != 1 || r.count[lOODB] != 1 || r.count[lEmit] != 1 {
		t.Fatalf("counts = %v", r.count)
	}
	if r.self[lEmit] < int64(2*time.Millisecond) {
		t.Errorf("emit self time %v, want at least 2ms", time.Duration(r.self[lEmit]))
	}
	if r.self[lOODB] > r.incl[lOODB]-r.incl[lEmit] || r.incl[lTxn] < r.incl[lOODB] {
		t.Errorf("self/incl inconsistent: self %v incl %v", r.self, r.incl)
	}
	if sum := r.self[lTxn] + r.self[lOODB] + r.self[lEmit]; sum != r.incl[lTxn] {
		t.Errorf("self times sum to %d, root span is %d", sum, r.incl[lTxn])
	}
	if r.spans[1].Parent != 0 || r.spans[2].Parent != 1 || r.spans[0].Parent != -1 {
		t.Errorf("parents = %d %d %d", r.spans[0].Parent, r.spans[1].Parent, r.spans[2].Parent)
	}
	r.retag(7)
	for _, s := range r.spans {
		if s.ID != 0 {
			t.Errorf("retag with no open root changed span %+v", s)
		}
	}
}
