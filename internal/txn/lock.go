package txn

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// LockMode is the strength of a lock request.
type LockMode int

// Lock modes.
const (
	LockShared LockMode = iota + 1
	LockExclusive
)

// String implements fmt.Stringer.
func (m LockMode) String() string {
	if m == LockShared {
		return "S"
	}
	return "X"
}

// lockStripes is the number of independent lock-table partitions. A
// power of two so the stripe index is a shift of the mixed hash.
const lockStripes = 64

// lockTable is a strict two-phase lock manager with Moss-style rules
// for nested transactions: a subtransaction may acquire a lock whose
// conflicting holders are all its ancestors, and on subtransaction
// commit its locks are inherited by the parent.
//
// The table is striped: resources hash across lockStripes partitions,
// each with its own mutex, so grants and releases on unrelated
// resources never serialize. Deadlock detection stays global — blocked
// requests record edges in one waits-for graph guarded by wfMu, and
// the cycle check (DFS) runs under wfMu alone, so grant/release on
// other stripes never queue behind it. The requester that would close
// a cycle receives ErrDeadlock.
//
// Lock order: a stripe mutex may be held when wfMu is taken; wfMu is
// never held while a stripe mutex is taken, and no two stripe mutexes
// are ever held together.
type lockTable struct {
	stripes [lockStripes]lockStripe

	// wfMu guards the global waits-for graph and the queued-on index.
	wfMu sync.Mutex
	// waitsFor maps a blocked transaction to the holders it waits on.
	waitsFor map[*Txn]map[*Txn]bool
	// waitingOn maps a blocked transaction to the resources it is
	// queued on, so releaseAll purges exactly those stripes instead of
	// scanning the whole table.
	waitingOn map[*Txn]map[uint64]bool

	// contention counts stripe-mutex acquisitions that found the stripe
	// already locked. Standalone by default; rebound by Instrument.
	contention *obs.Counter
}

type lockStripe struct {
	mu    sync.Mutex
	locks map[uint64]*lockState
}

type lockState struct {
	holders map[*Txn]LockMode
	queue   []*lockWaiter
}

type lockWaiter struct {
	t     *Txn
	mode  LockMode
	grant chan error
}

func newLockTable() *lockTable {
	lt := &lockTable{
		waitsFor:   make(map[*Txn]map[*Txn]bool),
		waitingOn:  make(map[*Txn]map[uint64]bool),
		contention: new(obs.Counter),
	}
	for i := range lt.stripes {
		lt.stripes[i].locks = make(map[uint64]*lockState)
	}
	return lt
}

// stripe selects the partition owning res. Fibonacci mixing spreads
// sequential OIDs (the common allocation pattern) across stripes.
func (lt *lockTable) stripe(res uint64) *lockStripe {
	return &lt.stripes[(res*0x9E3779B97F4A7C15)>>(64-6)]
}

// lockStripe locks st, counting the acquisitions that contended.
func (lt *lockTable) lockStripe(st *lockStripe) {
	if st.mu.TryLock() {
		return
	}
	lt.contention.Inc()
	st.mu.Lock()
}

// compatible reports whether t may be granted mode on ls.
func (ls *lockState) compatible(t *Txn, mode LockMode) bool {
	for h, hm := range ls.holders {
		if h == t {
			continue // upgrade handled by caller
		}
		if mode == LockShared && hm == LockShared {
			continue
		}
		// Conflict unless the holder is an ancestor (closed nesting).
		if !h.isAncestorOf(t) {
			return false
		}
	}
	return true
}

// heldByAncestor reports whether an ancestor of t holds the lock.
func (ls *lockState) heldByAncestor(t *Txn) bool {
	for h := range ls.holders {
		if h.isAncestorOf(t) {
			return true
		}
	}
	return false
}

func (lt *lockTable) acquire(t *Txn, res uint64, mode LockMode) error {
	st := lt.stripe(res)
	lt.lockStripe(st)
	ls := st.locks[res]
	if ls == nil {
		ls = &lockState{holders: make(map[*Txn]LockMode)}
		st.locks[res] = ls
	}
	// Already held at sufficient strength?
	if hm, ok := ls.holders[t]; ok {
		if hm == LockExclusive || mode == LockShared {
			st.mu.Unlock()
			return nil
		}
		// Upgrade S→X: must wait for other non-ancestor holders to go.
	}
	// Grant immediately when compatible, unless a queue has formed —
	// then join it for fairness. Two exceptions skip the queue: t
	// already holds the lock (re-entry), and an ancestor of t holds it
	// (closed nesting). The ancestor bypass is load-bearing: a rule
	// subtransaction reading state its top-level wrote must not be
	// fair-queued behind strangers who are themselves blocked on that
	// top-level's lock — the top won't release until the child
	// finishes, a cycle invisible to the waits-for graph because the
	// top is waiting in code, not in the lock table.
	if ls.compatible(t, mode) &&
		(len(ls.queue) == 0 || ls.holders[t] != 0 || ls.heldByAncestor(t)) {
		lt.grantLocked(ls, t, res, mode)
		lt.overtakeLocked(ls, t)
		st.mu.Unlock()
		return nil
	}
	// Must wait: record waits-for edges in the global graph and check
	// for a cycle, all before the stripe is released so the blockers
	// cannot dissolve between the decision to wait and the edges
	// becoming visible to other requesters' cycle checks.
	// Like compatible, the graph never counts an ancestor of t as a
	// blocker — neither a holder nor a queued request.
	blockers := make(map[*Txn]bool)
	for h := range ls.holders {
		if h != t && !h.isAncestorOf(t) {
			blockers[h] = true
		}
	}
	for _, w := range ls.queue {
		if w.t != t && !w.t.isAncestorOf(t) {
			blockers[w.t] = true
		}
	}
	lt.wfMu.Lock()
	lt.waitsFor[t] = blockers
	if lt.cycleFromLocked(t) {
		delete(lt.waitsFor, t)
		lt.wfMu.Unlock()
		st.mu.Unlock()
		return fmt.Errorf("%w: txn %d requesting %v on %d", ErrDeadlock, t.id, mode, res)
	}
	qr := lt.waitingOn[t]
	if qr == nil {
		qr = make(map[uint64]bool)
		lt.waitingOn[t] = qr
	}
	qr[res] = true
	lt.wfMu.Unlock()
	w := &lockWaiter{t: t, mode: mode, grant: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	st.mu.Unlock()

	// Blocked: measure the wait and attribute it to the requester's
	// trace. The granted-immediately fast path above records nothing.
	start := t.m.clk.Now()
	err := <-w.grant
	wait := t.m.clk.Now().Sub(start)
	t.m.observeLockWait(mode, wait)
	t.m.span(t, "lock-wait", mode.String(), start, wait)
	return err
}

// grantLocked adds the grant to the state and bookkeeping. The
// caller holds the stripe owning res.
func (lt *lockTable) grantLocked(ls *lockState, t *Txn, res uint64, mode LockMode) {
	if cur, ok := ls.holders[t]; !ok || mode > cur {
		ls.holders[t] = mode
	}
	t.heldMu.Lock()
	if t.held == nil {
		t.held = make(map[uint64]LockMode)
	}
	if cur, ok := t.held[res]; !ok || mode > cur {
		t.held[res] = mode
	}
	t.heldMu.Unlock()
	lt.clearWait(t, res)
}

// overtakeLocked records that the requests queued on ls now wait on
// t too: a grant that skipped the queue made t a holder the waiters
// did not see when they recorded their edges. The caller holds the
// stripe owning ls.
func (lt *lockTable) overtakeLocked(ls *lockState, t *Txn) {
	if len(ls.queue) == 0 {
		return
	}
	lt.wfMu.Lock()
	for _, w := range ls.queue {
		if bs := lt.waitsFor[w.t]; bs != nil && !t.isAncestorOf(w.t) {
			bs[t] = true
		}
	}
	lt.wfMu.Unlock()
}

// clearWait removes t's waits-for edges and queued-on entry for res.
func (lt *lockTable) clearWait(t *Txn, res uint64) {
	lt.wfMu.Lock()
	delete(lt.waitsFor, t)
	if qr := lt.waitingOn[t]; qr != nil {
		delete(qr, res)
		if len(qr) == 0 {
			delete(lt.waitingOn, t)
		}
	}
	lt.wfMu.Unlock()
}

// cycleFromLocked reports whether start's new wait closes a cycle in
// the waits-for graph. The caller holds wfMu. The recorded edges say
// which holders and queued requests each blocked transaction waits
// on; two derivation rules complete the graph with the waits nested
// transactions make outside the lock table:
//
//   - A transaction waits on whatever its waiting descendants wait on.
//     A parent that runs a rule subtransaction inline is blocked in
//     code, and it cannot finish — and so release its locks — before
//     every descendant has. The search therefore expands each node
//     with its waiting descendants' edges, and a path from start that
//     reaches an ancestor of start is a cycle too.
//   - An edge to a subtransaction is an edge to its ancestors too. A
//     committing subtransaction's locks pass to its parent (inherit)
//     and are released only when its top-level ancestor ends, so the
//     waiter waits on every ancestor of the holder — up to the first
//     one it shares, which it never waits on.
//
// No edge may point to the waiter's own ancestor: compatible never
// treats an ancestor as a blocker, and the graph agrees with it.
func (lt *lockTable) cycleFromLocked(start *Txn) bool {
	// waitingBelow maps each transaction to its waiting descendants.
	waitingBelow := make(map[*Txn][]*Txn)
	for w := range lt.waitsFor {
		for p := w.parent; p != nil; p = p.parent {
			waitingBelow[p] = append(waitingBelow[p], w)
		}
	}
	seen := make(map[*Txn]bool)
	var reaches func(t *Txn) bool
	// follow walks the edges waiter w recorded, each extended to the
	// holder's ancestors that are not w's.
	follow := func(w *Txn) bool {
		for b := range lt.waitsFor[w] {
			for ; b != nil && b != w && !b.isAncestorOf(w); b = b.parent {
				if reaches(b) {
					return true
				}
			}
		}
		return false
	}
	reaches = func(t *Txn) bool {
		if t == start || t.isAncestorOf(start) {
			return true
		}
		if seen[t] {
			return false
		}
		seen[t] = true
		if follow(t) {
			return true
		}
		for _, d := range waitingBelow[t] {
			if follow(d) {
				return true
			}
		}
		return false
	}
	return follow(start)
}

// releaseAll drops every lock held by t, fails t's queued requests,
// and wakes compatible waiters.
func (lt *lockTable) releaseAll(t *Txn) {
	// Remove t from every wait queue it is parked on: a transaction
	// resolved by another goroutine must not be granted locks later.
	// The queued-on index names the stripes to visit.
	lt.wfMu.Lock()
	var queued []uint64
	for res := range lt.waitingOn[t] {
		queued = append(queued, res)
	}
	lt.wfMu.Unlock()
	for _, res := range queued {
		st := lt.stripe(res)
		lt.lockStripe(st)
		ls := st.locks[res]
		if ls == nil {
			st.mu.Unlock()
			continue
		}
		for i := 0; i < len(ls.queue); {
			if ls.queue[i].t == t {
				w := ls.queue[i]
				ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
				w.grant <- ErrWaitCancelled
			} else {
				i++
			}
		}
		lt.wakeLocked(st, ls, res)
		st.mu.Unlock()
	}

	t.heldMu.Lock()
	held := t.held
	t.held = nil
	t.heldMu.Unlock()
	for res := range held {
		st := lt.stripe(res)
		lt.lockStripe(st)
		ls := st.locks[res]
		if ls == nil {
			st.mu.Unlock()
			continue
		}
		delete(ls.holders, t)
		lt.wakeLocked(st, ls, res)
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			delete(st.locks, res)
		}
		st.mu.Unlock()
	}
	lt.wfMu.Lock()
	delete(lt.waitsFor, t)
	delete(lt.waitingOn, t)
	lt.wfMu.Unlock()
}

// inherit transfers all locks held by child to parent (Moss rule on
// subtransaction commit). Waiters' edges to child need no rewrite:
// cycleFromLocked already extends them to child's ancestors.
func (lt *lockTable) inherit(child, parent *Txn) {
	child.heldMu.Lock()
	held := child.held
	child.held = nil
	child.heldMu.Unlock()
	for res, mode := range held {
		st := lt.stripe(res)
		lt.lockStripe(st)
		ls := st.locks[res]
		if ls == nil {
			st.mu.Unlock()
			continue
		}
		delete(ls.holders, child)
		if cur, ok := ls.holders[parent]; !ok || mode > cur {
			ls.holders[parent] = mode
		}
		parent.heldMu.Lock()
		if parent.held == nil {
			parent.held = make(map[uint64]LockMode)
		}
		if cur, ok := parent.held[res]; !ok || mode > cur {
			parent.held[res] = mode
		}
		parent.heldMu.Unlock()
		lt.wakeLocked(st, ls, res)
		st.mu.Unlock()
	}
	lt.wfMu.Lock()
	delete(lt.waitsFor, child)
	delete(lt.waitingOn, child)
	lt.wfMu.Unlock()
}

// wakeLocked grants queued requests that are now compatible, in FIFO
// order, stopping at the first incompatible one. The caller holds st.
func (lt *lockTable) wakeLocked(st *lockStripe, ls *lockState, res uint64) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if w.t.Status() != Active {
			ls.queue = ls.queue[1:]
			lt.clearWait(w.t, res)
			w.grant <- ErrWaitCancelled
			continue
		}
		if !ls.compatible(w.t, w.mode) {
			return
		}
		ls.queue = ls.queue[1:]
		lt.grantLocked(ls, w.t, res, w.mode)
		w.grant <- nil
	}
}

// heldModes reports the locks t currently holds (for tests and stats).
func (lt *lockTable) heldModes(t *Txn) map[uint64]LockMode {
	t.heldMu.Lock()
	defer t.heldMu.Unlock()
	out := make(map[uint64]LockMode, len(t.held))
	for r, m := range t.held {
		out[r] = m
	}
	return out
}

// Held reports the resources and modes t currently holds.
func (t *Txn) Held() map[uint64]LockMode { return t.m.locks.heldModes(t) }
