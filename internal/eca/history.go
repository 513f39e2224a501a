package eca

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/txn"
)

// HistoryEntry is one recorded event occurrence.
type HistoryEntry struct {
	Seq  uint64
	Txn  uint64
	Key  string
	Time time.Time
}

// historyRing is a bounded ring buffer of occurrences — the local
// history each ECA-manager keeps so that logging does not funnel
// through a central bottleneck (§6.3). The buffer is allocated on the
// first append and grows up to the capacity, so the many managers
// whose events never occur cost no history memory.
type historyRing struct {
	buf      []HistoryEntry
	capacity int
	start    int
	n        int
}

// historyEntryOverhead approximates the fixed in-memory cost of one
// HistoryEntry (struct fields plus string header); the key's bytes
// are added on top. Exactness does not matter — the governor needs a
// monotone footprint signal, not an allocator audit.
const historyEntryOverhead = 64

func entrySize(e HistoryEntry) int64 {
	return historyEntryOverhead + int64(len(e.Key))
}

// append records e and returns the ring's byte-footprint delta
// (negative contributions come from the entry an insert evicts).
func (r *historyRing) append(e HistoryEntry) int64 {
	if r.n < r.capacity {
		// Not yet full, so the ring has never wrapped: start is 0 and
		// the entries sit in buf[:n]. Grow by doubling, capped at the
		// capacity.
		if r.n == len(r.buf) {
			grown := make([]HistoryEntry, min(max(2*len(r.buf), 4), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf[r.n] = e
		r.n++
		return entrySize(e)
	}
	delta := entrySize(e) - entrySize(r.buf[r.start])
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	return delta
}

func (r *historyRing) entries() []HistoryEntry {
	out := make([]HistoryEntry, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// forTxn returns the ring's entries belonging to one transaction.
func (r *historyRing) forTxn(id uint64) []HistoryEntry {
	var out []HistoryEntry
	for i := 0; i < r.n; i++ {
		e := r.buf[(r.start+i)%len(r.buf)]
		if e.Txn == id {
			out = append(out, e)
		}
	}
	return out
}

// history is one event history — a manager's local history or the
// global one — behind one mutex. The per-manager split is the §6.3
// argument against a central log; each history is small and written
// by the events of one type, so it takes no further partitioning.
type history struct {
	mu   sync.Mutex
	ring historyRing
	// bytes accumulates the ring's approximate footprint. The engine
	// points every history (global and per-manager local) at one
	// shared gauge so the governor reads total footprint in one load.
	bytes *obs.Gauge
}

func newHistory(capacity int, bytes *obs.Gauge) *history {
	return &history{ring: historyRing{capacity: max(capacity, 1)}, bytes: bytes}
}

func (h *history) append(e HistoryEntry) {
	h.mu.Lock()
	delta := h.ring.append(e)
	h.mu.Unlock()
	if delta != 0 {
		h.bytes.Add(delta)
	}
}

// entries returns the history oldest first by Seq. The ring holds
// append order, which concurrent consolidations may interleave.
func (h *history) entries() []HistoryEntry {
	h.mu.Lock()
	out := h.ring.entries()
	h.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// forTxn returns the entries belonging to one transaction, in append
// order; consolidation orders them by Seq across managers.
func (h *history) forTxn(id uint64) []HistoryEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ring.forTxn(id)
}

// GlobalHistory returns the consolidated event history, oldest first.
func (e *Engine) GlobalHistory() []HistoryEntry {
	return e.hist.entries()
}

// touchedKey keys, on a top-level transaction, the managers whose
// local histories took an occurrence for it.
type touchedKey struct{}

// touchedManagers is the consolidation index of one top-level
// transaction: record adds a manager the first time it logs an
// occurrence for the transaction, so consolidation visits exactly the
// histories that can hold its entries.
type touchedManagers struct {
	mu sync.Mutex
	ms []*Manager
}

func (tm *touchedManagers) add(m *Manager) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	for _, x := range tm.ms {
		if x == m {
			return
		}
	}
	tm.ms = append(tm.ms, m)
}

// noteTouched indexes m as holding an occurrence of top.
func noteTouched(top *txn.Txn, m *Manager) {
	tm := top.ValueOrInit(touchedKey{}, func() any { return new(touchedManagers) }).(*touchedManagers)
	tm.add(m)
}

// consolidateHistory moves a finished transaction's occurrences from
// the managers' local histories into the global history, in occurrence
// order. In distributed mode this runs after the transaction ends —
// off the detection fast path. Only the managers the transaction's
// index names are visited, so the cost follows what the transaction
// touched, not how many managers the loaded rules created.
func (e *Engine) consolidateHistory(top *txn.Txn) {
	if e.opts.History == CentralHistory {
		return // already centralized at detection time
	}
	tm, ok := top.Value(touchedKey{}).(*touchedManagers)
	if !ok {
		return
	}
	tm.mu.Lock()
	managers := tm.ms
	tm.mu.Unlock()
	e.met.consolidated.Add(uint64(len(managers)))
	var entries []HistoryEntry
	for _, m := range managers {
		entries = append(entries, m.local.forTxn(top.ID())...)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	for _, en := range entries {
		e.hist.append(en)
	}
}
