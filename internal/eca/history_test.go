package eca

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
)

// fullScanForTxn is consolidation without the index: every manager's
// local history, filtered to one transaction, in occurrence order.
func fullScanForTxn(e *Engine, id uint64) []HistoryEntry {
	e.mu.RLock()
	managers := make([]*Manager, 0, len(e.managers))
	for _, m := range e.managers {
		managers = append(managers, m)
	}
	e.mu.RUnlock()
	var out []HistoryEntry
	for _, m := range managers {
		for _, en := range m.LocalHistory() {
			if en.Txn == id {
				out = append(out, en)
			}
		}
	}
	canonical(out)
	return out
}

func globalForTxn(e *Engine, id uint64) []HistoryEntry {
	var out []HistoryEntry
	for _, en := range e.GlobalHistory() {
		if en.Txn == id {
			out = append(out, en)
		}
	}
	canonical(out)
	return out
}

// canonical orders entries by Seq and, within one Seq, by key: a
// composite completion carries the Seq of the constituent that
// completed it, and the order among such ties is not part of the
// history's contract.
func canonical(entries []HistoryEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Key < b.Key
	})
}

func historyKeys(entries []HistoryEntry) map[string]bool {
	out := make(map[string]bool, len(entries))
	for _, en := range entries {
		out[en.Key] = true
	}
	return out
}

// TestConsolidationMatchesFullScan checks that the indexed
// consolidation moves exactly the entries a scan of every manager
// would: top-level events (flow-control included), events raised in
// subtransactions, composite completions recorded while the
// transaction is live, and the same on the abort path.
func TestConsolidationMatchesFullScan(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	nop := func(*RuleCtx) error { return nil }
	comp := seqComposite("pingThenReset", algebra.ScopeTransaction)
	if err := e.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	rules := []*Rule{
		{Name: "onBOT", EventKey: event.TxnSpec{Phase: event.BOT}.Key(), ActionMode: Immediate, Action: nop},
		{Name: "onEOT", EventKey: event.TxnSpec{Phase: event.EOT}.Key(), ActionMode: Immediate, Action: nop},
		{Name: "onCommit", EventKey: event.TxnSpec{Phase: event.Commit}.Key(), ActionMode: Detached, Action: nop},
		{Name: "onAbort", EventKey: event.TxnSpec{Phase: event.Abort}.Key(), ActionMode: Detached, Action: nop},
		// The immediate ping rule resets the sensor from inside its
		// subtransaction, so the reset event is raised below the top.
		{Name: "pingResets", EventKey: pingKey(), ActionMode: Immediate, Action: func(rc *RuleCtx) error {
			_, err := rc.Ctx().Invoke(obj, "reset")
			return err
		}},
		{Name: "onReset", EventKey: resetKey(), ActionMode: Deferred, Action: nop},
		{Name: "onComp", EventKey: comp.Key(), ActionMode: Deferred, Action: nop},
	}
	for _, r := range rules {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{pingKey(), resetKey(), comp.Key(), event.TxnSpec{Phase: event.BOT}.Key()}

	for _, commit := range []bool{true, false} {
		tx := db.Begin()
		if _, err := db.Invoke(tx, obj, "ping", int64(1)); err != nil {
			t.Fatal(err)
		}
		child, err := tx.BeginChild()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Invoke(child, obj, "ping", int64(2)); err != nil {
			t.Fatal(err)
		}
		if err := child.Commit(); err != nil {
			t.Fatal(err)
		}
		// A commit raises EOT and commit; an abort raises only abort.
		outcome := []string{event.TxnSpec{Phase: event.EOT}.Key(), event.TxnSpec{Phase: event.Commit}.Key()}
		if commit {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			e.DrainComposers()
			tx.Abort()
			outcome = []string{event.TxnSpec{Phase: event.Abort}.Key()}
		}
		got := globalForTxn(e, tx.ID())
		if full := fullScanForTxn(e, tx.ID()); !reflect.DeepEqual(got, full) {
			t.Fatalf("commit=%v: consolidated\n%v\nfull scan\n%v", commit, got, full)
		}
		keys := historyKeys(got)
		for _, k := range append(want, outcome...) {
			if !keys[k] {
				t.Fatalf("commit=%v: global history lacks %s: %v", commit, k, got)
			}
		}
	}
	e.WaitDetached()
}

// addIdleRules registers n rules, each on its own event that no
// transaction raises: n managers that never see an occurrence.
func addIdleRules(t *testing.T, e *Engine, n int) {
	t.Helper()
	nop := func(*RuleCtx) error { return nil }
	for i := 0; i < n; i++ {
		key := event.MethodSpec{Class: "Idle", Method: fmt.Sprintf("m%04d", i), When: event.After}.Key()
		if err := e.AddRule(&Rule{Name: fmt.Sprintf("idle%04d", i), EventKey: key, ActionMode: Immediate, Action: nop}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConsolidationVisitsOnlyTouchedManagers loads 1,000 rules on
// events no transaction raises and checks that each commit visits the
// one local history it touched, not every manager's.
func TestConsolidationVisitsOnlyTouchedManagers(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	const idle = 1000
	addIdleRules(t, e, idle)
	nop := func(*RuleCtx) error { return nil }
	if err := e.AddRule(&Rule{Name: "r", EventKey: pingKey(), ActionMode: Immediate, Action: nop}); err != nil {
		t.Fatal(err)
	}
	if got := e.Managers(); got != idle+1 {
		t.Fatalf("managers = %d, want %d", got, idle+1)
	}
	before := e.met.consolidated.Value()
	const commits = 50
	for i := 0; i < commits; i++ {
		tx := db.Begin()
		if _, err := db.Invoke(tx, obj, "ping", int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if visits := e.met.consolidated.Value() - before; visits != commits {
		t.Fatalf("consolidation visited %d local histories over %d commits, want %d (the one touched manager each)",
			visits, commits, commits)
	}
	if got := len(e.GlobalHistory()); got != commits {
		t.Fatalf("global history = %d entries, want %d", got, commits)
	}
}

// TestHistoryRingGrowsLazily checks that a ring costs nothing until
// its first append, grows no further than its capacity, keeps the most
// recent capacity entries in order, and reports a byte delta whose sum
// is the footprint of exactly the retained entries.
func TestHistoryRingGrowsLazily(t *testing.T) {
	r := historyRing{capacity: 10}
	if r.buf != nil {
		t.Fatal("ring allocated before its first append")
	}
	var bytes int64
	for i := 1; i <= 25; i++ {
		bytes += r.append(HistoryEntry{Seq: uint64(i), Key: fmt.Sprintf("k%d", i)})
		if len(r.buf) > r.capacity {
			t.Fatalf("after %d appends the buffer holds %d slots, capacity %d", i, len(r.buf), r.capacity)
		}
	}
	got := r.entries()
	if len(got) != 10 || got[0].Seq != 16 || got[9].Seq != 25 {
		t.Fatalf("ring retains %v, want Seq 16..25", got)
	}
	var want int64
	for i, en := range got {
		if i > 0 && en.Seq != got[i-1].Seq+1 {
			t.Fatalf("ring out of order: %v", got)
		}
		want += entrySize(en)
	}
	if bytes != want {
		t.Fatalf("byte deltas sum to %d, retained entries cost %d", bytes, want)
	}
}

// TestIdleManagersHoldNoHistory: managers whose events never occur
// allocate no history buffer and account no history bytes.
func TestIdleManagersHoldNoHistory(t *testing.T) {
	e, _, _ := newTestEngine(t, Options{})
	addIdleRules(t, e, 100)
	if got := e.HistoryBytes(); got != 0 {
		t.Fatalf("history bytes = %d with no occurrences, want 0", got)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for key, m := range e.managers {
		if m.local.ring.buf != nil {
			t.Fatalf("idle manager %s allocated a history buffer", key)
		}
	}
}
