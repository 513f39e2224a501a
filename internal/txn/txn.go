// Package txn implements the REACH transaction manager: flat and
// closed nested transactions, a strict two-phase lock manager with
// deadlock detection, and the commit/abort dependencies required by
// the detached causally dependent coupling modes (paper §3.2, §4).
//
// The commercial systems the REACH group tried first exposed neither
// transaction identifiers nor commit/abort control (§4); this manager
// exposes exactly those hooks: listeners on BOT/EOT/commit/abort,
// dependency edges between transactions, and nested subtransactions
// for parallel rule execution.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// Status is the lifecycle state of a transaction.
type Status int

// Transaction states.
const (
	Active Status = iota + 1
	Committed
	Aborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Errors returned by transaction operations.
var (
	ErrNotActive        = errors.New("txn: transaction not active")
	ErrChildrenActive   = errors.New("txn: subtransactions still active")
	ErrDeadlock         = errors.New("txn: deadlock detected")
	ErrDependencyFailed = errors.New("txn: commit dependency not satisfied")
	// ErrWaitCancelled fails a pending lock request whose transaction
	// was resolved by another goroutine while it waited. It wraps
	// ErrNotActive so existing errors.Is checks keep matching.
	ErrWaitCancelled = fmt.Errorf("txn: lock wait cancelled: %w", ErrNotActive)
)

// IsRetriable reports whether err is a transient scheduling failure a
// fresh transaction attempt may not hit again: a detected deadlock
// (this transaction was chosen to break the cycle) or a cancelled
// lock wait. Permanent failures — constraint violations, dependency
// outcomes, storage errors — are not retriable. The rule executor
// consults this to decide between backoff-retry and the circuit
// breaker.
func IsRetriable(err error) bool {
	return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrWaitCancelled)
}

// Listener observes transaction lifecycle events. The rule engine
// registers one to raise flow-control events and to run deferred
// rules at EOT.
type Listener interface {
	// AfterBegin is called when a transaction becomes active.
	AfterBegin(t *Txn)
	// BeforeCommit is called for top-level transactions after their
	// work completes but before the commit decision (the paper's EOT).
	// Returning an error aborts the transaction.
	BeforeCommit(t *Txn) error
	// AfterCommit is called once a transaction has committed.
	AfterCommit(t *Txn)
	// AfterAbort is called once a transaction has aborted.
	AfterAbort(t *Txn)
}

// Manager creates and tracks transactions.
type Manager struct {
	mu       sync.Mutex
	nextID   uint64
	locks    *lockTable
	listener Listener

	// admission, when installed, gates BeginAdmitted: the overload
	// governor's writer choke point. Plain Begin bypasses it — rule
	// transactions and internal work are never admission-controlled
	// (shedding them is the engine's job, at its own choke points).
	admission func() error

	// commitFunc/abortFunc are installed by the database layer to make
	// top-level outcomes durable.
	commitFunc func(t *Txn) error
	abortFunc  func(t *Txn) error

	// Top-level outcome counters and lifetime histogram. Standalone
	// by default; Instrument rebinds them into a shared registry.
	commits *obs.Counter
	aborts  *obs.Counter
	durs    *obs.Histogram

	// activeTop counts live top-level transactions — the governor's
	// cheapest load signal.
	activeTop *obs.Gauge

	// Latency attribution: time blocked on lock grants (by requested
	// mode) and time inside the durability callback at commit.
	lockWaitS  *obs.Histogram
	lockWaitX  *obs.Histogram
	durableDur *obs.Histogram

	// tracer, when set, receives lock-wait and wal-fsync spans for
	// transactions tagged with a trace ID (SetTrace).
	tracer *obs.Tracer

	// clk stamps transaction begin times and measures lifetimes.
	// Real by default; SetClock injects a virtual clock in tests.
	clk clock.Clock
}

// NewManager returns a transaction manager.
func NewManager() *Manager {
	m := &Manager{
		nextID:     1,
		commits:    new(obs.Counter),
		aborts:     new(obs.Counter),
		durs:       new(obs.Histogram),
		activeTop:  new(obs.Gauge),
		lockWaitS:  new(obs.Histogram),
		lockWaitX:  new(obs.Histogram),
		durableDur: new(obs.Histogram),
		clk:        clock.NewReal(),
	}
	m.locks = newLockTable()
	return m
}

// SetClock replaces the manager's time source. Call it before the
// first Begin; transaction timestamps and lifetime metrics then come
// from c, which makes them deterministic under a virtual clock.
func (m *Manager) SetClock(c clock.Clock) { m.clk = c }

// Instrument binds the manager's counters into reg. Call it before
// the first Begin.
func (m *Manager) Instrument(reg *obs.Registry) {
	const name, help = "reach_txn_total", "Top-level transaction outcomes."
	m.commits = reg.Counter(name, help, "outcome", "commit")
	m.aborts = reg.Counter(name, help, "outcome", "abort")
	m.durs = reg.Histogram("reach_txn_duration_seconds",
		"Top-level transaction lifetime, begin to resolution.")
	m.activeTop = reg.Gauge("reach_txn_active",
		"Live (unresolved) top-level transactions.")
	const lwName, lwHelp = "reach_lock_wait_seconds",
		"Time blocked waiting for a lock grant, by requested mode."
	m.lockWaitS = reg.Histogram(lwName, lwHelp, "mode", "S")
	m.lockWaitX = reg.Histogram(lwName, lwHelp, "mode", "X")
	m.durableDur = reg.Histogram("reach_txn_durable_commit_seconds",
		"Durability callback latency (WAL append + fsync) at top-level commit.")
	m.locks.contention = reg.Counter("reach_lock_stripe_contention_total",
		"Lock-table stripe acquisitions that found the stripe already locked.")
}

// SetTracer installs the tracer that receives lock-wait and wal-fsync
// spans for transactions carrying a trace ID. Call it before the
// first Begin.
func (m *Manager) SetTracer(tr *obs.Tracer) { m.tracer = tr }

// observeLockWait records time spent blocked on a lock grant.
func (m *Manager) observeLockWait(mode LockMode, d time.Duration) {
	if mode == LockShared {
		m.lockWaitS.Observe(d)
	} else {
		m.lockWaitX.Observe(d)
	}
}

// span records a stage on the nearest trace in t's ancestry, if any
// and a tracer is installed. Callers must not hold any mu on the
// ancestry chain.
func (m *Manager) span(t *Txn, stage, key string, start time.Time, dur time.Duration) {
	if m.tracer == nil {
		return
	}
	if id := t.traceUp(); id != 0 {
		m.tracer.Span(id, stage, key, start, dur)
	}
}

// traceUp returns the trace ID of t or its nearest traced ancestor:
// a rule subtransaction carries the trace while its user-submitted
// top-level parent does not.
func (t *Txn) traceUp() uint64 {
	for ; t != nil; t = t.parent {
		if id := t.TraceID(); id != 0 {
			return id
		}
	}
	return 0
}

// SetListener installs the lifecycle listener (nil allowed).
func (m *Manager) SetListener(l Listener) { m.listener = l }

// SetDurability installs the callbacks invoked to make a top-level
// commit or abort durable (typically wired to the storage layer).
func (m *Manager) SetDurability(commit, abort func(t *Txn) error) {
	m.commitFunc = commit
	m.abortFunc = abort
}

// Txn is a transaction: top-level when Parent is nil, otherwise a
// closed nested subtransaction whose effects become permanent only if
// every ancestor commits.
type Txn struct {
	m       *Manager
	id      uint64
	parent  *Txn
	started time.Time

	mu       sync.Mutex
	status   Status
	children map[*Txn]bool
	undo     []func() // LIFO compensations run on abort
	done     chan struct{}
	err      error

	// deps are commit-time dependencies: this transaction may commit
	// only once each dep.on reaches the outcome dep.want.
	deps []dependency

	// trace is the event-trace ID this transaction's lock-wait and
	// commit latency attribute to (0 when untraced).
	trace uint64

	// Values attached by higher layers (e.g. the object cache).
	vals map[any]any

	// held maps resources to the strongest lock mode this transaction
	// holds, guarded by heldMu — its own mutex, not mu, because the
	// lock table updates it while holding a stripe and must never
	// entangle stripe order with transaction-state order. heldMu is a
	// leaf: nothing is acquired while it is held.
	heldMu sync.Mutex
	held   map[uint64]LockMode
}

type dependency struct {
	on   *Txn
	want Status
}

// SetAdmission installs the admission gate consulted by
// BeginAdmitted (nil removes it). Call it before the first Begin.
func (m *Manager) SetAdmission(f func() error) { m.admission = f }

// ActiveTopLevel reports the number of live top-level transactions.
func (m *Manager) ActiveTopLevel() int64 { return m.activeTop.Value() }

// Begin starts a new top-level transaction.
func (m *Manager) Begin() *Txn { return m.BeginTagged(nil, nil) }

// BeginAdmitted starts a top-level transaction after consulting the
// admission gate: under overload it blocks up to the governor's
// admission deadline and then fails with the gate's typed error
// (governor.ErrOverloaded — retry with backoff) without consuming a
// transaction ID. With no gate installed it is Begin.
func (m *Manager) BeginAdmitted() (*Txn, error) {
	if f := m.admission; f != nil {
		if err := f(); err != nil {
			return nil, err
		}
	}
	return m.Begin(), nil
}

// BeginTagged starts a top-level transaction with a value attached
// before lifecycle listeners observe it. The rule engine uses it to
// distinguish rule transactions from user-submitted ones.
func (m *Manager) BeginTagged(key, val any) *Txn {
	m.mu.Lock()
	id := m.nextID
	m.nextID++
	m.mu.Unlock()
	t := &Txn{
		m:        m,
		id:       id,
		started:  m.clk.Now(),
		status:   Active,
		children: make(map[*Txn]bool),
		done:     make(chan struct{}),
	}
	if key != nil {
		t.vals = map[any]any{key: val}
	}
	m.activeTop.Add(1)
	if m.listener != nil {
		m.listener.AfterBegin(t)
	}
	return t
}

// BeginChild starts a nested subtransaction of t.
func (t *Txn) BeginChild() (*Txn, error) {
	t.mu.Lock()
	if t.status != Active {
		t.mu.Unlock()
		return nil, ErrNotActive
	}
	t.m.mu.Lock()
	id := t.m.nextID
	t.m.nextID++
	t.m.mu.Unlock()
	c := &Txn{
		m:        t.m,
		id:       id,
		parent:   t,
		started:  t.m.clk.Now(),
		status:   Active,
		children: make(map[*Txn]bool),
		done:     make(chan struct{}),
	}
	t.children[c] = true
	t.mu.Unlock()
	if t.m.listener != nil {
		t.m.listener.AfterBegin(c)
	}
	return c, nil
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// Parent returns the enclosing transaction, nil for top-level.
func (t *Txn) Parent() *Txn { return t.parent }

// IsTop reports whether t is a top-level transaction.
func (t *Txn) IsTop() bool { return t.parent == nil }

// Top returns the top-level ancestor of t (t itself when top-level).
func (t *Txn) Top() *Txn {
	for t.parent != nil {
		t = t.parent
	}
	return t
}

// Depth reports the nesting depth (0 for top-level).
func (t *Txn) Depth() int {
	d := 0
	for p := t.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Status reports the current lifecycle state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Done returns a channel closed when the transaction resolves.
func (t *Txn) Done() <-chan struct{} { return t.done }

// Err reports why the transaction aborted, nil otherwise.
func (t *Txn) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Wait blocks until the transaction resolves and returns its outcome.
func (t *Txn) Wait() Status {
	<-t.done
	return t.Status()
}

// OnAbort registers a compensation run (LIFO) if the transaction
// aborts. Higher layers use it to undo in-memory object state.
func (t *Txn) OnAbort(fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.undo = append(t.undo, fn)
}

// SetValue attaches a value to the transaction under key.
func (t *Txn) SetValue(key, val any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.vals == nil {
		t.vals = make(map[any]any)
	}
	t.vals[key] = val
}

// Value retrieves a value attached with SetValue.
func (t *Txn) Value(key any) any {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.vals[key]
}

// ValueOrInit returns the value attached under key, first attaching
// mk() when there is none. The check and the attach are one step, so
// concurrent subtransactions sharing a top-level ancestor agree on one
// value. mk runs under the transaction's mutex and must not call back
// into the transaction.
func (t *Txn) ValueOrInit(key any, mk func() any) any {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.vals[key]; ok {
		return v
	}
	if t.vals == nil {
		t.vals = make(map[any]any)
	}
	v := mk()
	t.vals[key] = v
	return v
}

// SetTrace associates an event-trace ID with this transaction; the
// manager then attributes lock waits and durable-commit latency to
// that trace as spans. The rule engine tags rule transactions with the
// triggering event's trace.
func (t *Txn) SetTrace(id uint64) {
	t.mu.Lock()
	t.trace = id
	t.mu.Unlock()
}

// TraceID reports the associated event-trace ID, 0 when untraced.
func (t *Txn) TraceID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trace
}

// isAncestorOf reports whether t is a proper ancestor of other.
func (t *Txn) isAncestorOf(other *Txn) bool {
	for p := other.parent; p != nil; p = p.parent {
		if p == t {
			return true
		}
	}
	return false
}

// RequireCommit records that t may commit only if on commits
// (parallel and sequential detached causally dependent modes).
func (t *Txn) RequireCommit(on *Txn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deps = append(t.deps, dependency{on: on, want: Committed})
}

// RequireAbort records that t may commit only if on aborts (exclusive
// detached causally dependent mode: the contingency commits only when
// the triggering transaction fails).
func (t *Txn) RequireAbort(on *Txn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deps = append(t.deps, dependency{on: on, want: Aborted})
}

// Lock acquires a lock on resource res in the given mode, blocking
// until granted. It returns ErrDeadlock when granting would create a
// wait cycle; the caller should abort.
func (t *Txn) Lock(res uint64, mode LockMode) error {
	if t.Status() != Active {
		return ErrNotActive
	}
	return t.m.locks.acquire(t, res, mode)
}

// Commit completes the transaction successfully.
//
// For a top-level transaction the order is: EOT listener (deferred
// rules), active-children check, commit-dependency wait, durability
// callback, state change, lock release, commit listener. For a
// subtransaction: state change and lock inheritance by the parent.
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.status != Active {
		t.mu.Unlock()
		return ErrNotActive
	}
	t.mu.Unlock()

	if t.parent == nil {
		if l := t.m.listener; l != nil {
			if err := l.BeforeCommit(t); err != nil {
				_ = t.Abort() // secondary to the EOT error returned below
				return fmt.Errorf("txn %d: EOT processing: %w", t.id, err)
			}
		}
	}

	t.mu.Lock()
	if t.status != Active { // aborted during EOT processing
		st := t.status
		t.mu.Unlock()
		if st == Aborted {
			return ErrNotActive
		}
		return nil
	}
	for c := range t.children {
		if c.Status() == Active {
			t.mu.Unlock()
			return ErrChildrenActive
		}
	}
	deps := append([]dependency(nil), t.deps...)
	t.mu.Unlock()

	// Wait for causal dependencies (outside t.mu: the trigger may take
	// arbitrarily long to resolve).
	for _, d := range deps {
		if got := d.on.Wait(); got != d.want {
			err := fmt.Errorf("%w: txn %d requires txn %d %v, got %v",
				ErrDependencyFailed, t.id, d.on.id, d.want, got)
			_ = t.Abort() // secondary to the dependency error returned below
			return err
		}
	}

	if t.parent == nil {
		if cf := t.m.commitFunc; cf != nil {
			start := t.m.clk.Now()
			err := cf(t)
			dur := t.m.clk.Now().Sub(start)
			t.m.durableDur.Observe(dur)
			t.m.span(t, "wal-fsync", "", start, dur)
			if err != nil {
				_ = t.Abort() // secondary to the durable-commit error returned below
				return fmt.Errorf("txn %d: durable commit: %w", t.id, err)
			}
		}
	}

	t.mu.Lock()
	if t.status != Active {
		t.mu.Unlock()
		return ErrNotActive
	}
	t.status = Committed
	undo := t.undo
	t.undo = nil
	close(t.done)
	t.mu.Unlock()

	if t.parent == nil {
		t.m.commits.Inc()
		t.m.activeTop.Add(-1)
		t.m.durs.Observe(t.m.clk.Now().Sub(t.started))
		t.m.locks.releaseAll(t)
	} else {
		// Closed nesting: the parent inherits the child's locks and
		// its undo obligations — the child's effects become permanent
		// only if every ancestor commits.
		t.m.locks.inherit(t, t.parent)
		if len(undo) > 0 {
			t.parent.mu.Lock()
			t.parent.undo = append(t.parent.undo, undo...)
			t.parent.mu.Unlock()
		}
	}
	if l := t.m.listener; l != nil {
		l.AfterCommit(t)
	}
	return nil
}

// Abort rolls the transaction back: active children are aborted
// first, compensations run LIFO, the durability callback undoes
// storage effects (top-level), locks are released.
func (t *Txn) Abort() error {
	return t.abort(nil)
}

// AbortWith aborts recording cause as the transaction error.
func (t *Txn) AbortWith(cause error) error {
	return t.abort(cause)
}

func (t *Txn) abort(cause error) error {
	t.mu.Lock()
	if t.status != Active {
		t.mu.Unlock()
		return ErrNotActive
	}
	children := make([]*Txn, 0, len(t.children))
	for c := range t.children {
		children = append(children, c)
	}
	t.mu.Unlock()

	for _, c := range children {
		if c.Status() == Active {
			_ = c.abort(fmt.Errorf("txn: parent %d aborted", t.id)) // cascade: child may already be resolved
		}
	}

	t.mu.Lock()
	undo := t.undo
	t.undo = nil
	t.mu.Unlock()
	for i := len(undo) - 1; i >= 0; i-- {
		undo[i]()
	}

	if t.parent == nil {
		if af := t.m.abortFunc; af != nil {
			if err := af(t); err != nil {
				// Storage-level abort failed; surface it but still mark
				// the transaction aborted so waiters resolve.
				cause = errors.Join(cause, err)
			}
		}
	}

	t.mu.Lock()
	t.status = Aborted
	t.err = cause
	close(t.done)
	t.mu.Unlock()

	if t.parent == nil {
		t.m.aborts.Inc()
		t.m.activeTop.Add(-1)
		t.m.durs.Observe(t.m.clk.Now().Sub(t.started))
	}
	t.m.locks.releaseAll(t)
	if l := t.m.listener; l != nil {
		l.AfterAbort(t)
	}
	return nil
}
