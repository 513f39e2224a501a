package eca

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/governor"
	"repro/internal/txn"
)

// deferredKey keys the per-top-transaction deferred queue.
type deferredKey struct{}

type deferredQueue struct {
	mu      sync.Mutex
	entries []deferredEntry
}

type deferredEntry struct {
	rule       *Rule
	in         *event.Instance
	at         time.Time // enqueue time; the queue-wait span
	actionOnly bool      // condition already evaluated (imm/def split)
}

func (e *Engine) deferredQueue(top *txn.Txn) *deferredQueue {
	return top.ValueOrInit(deferredKey{}, func() any { return &deferredQueue{} }).(*deferredQueue)
}

// enqueueDeferred queues a whole rule for execution at the top-level
// transaction's EOT.
func (e *Engine) enqueueDeferred(top *txn.Txn, r *Rule, in *event.Instance) {
	q := e.deferredQueue(top)
	q.mu.Lock()
	q.entries = append(q.entries, deferredEntry{rule: r, in: in, at: e.clk.Now()})
	q.mu.Unlock()
	e.met.deferredDepth.Add(1)
}

// enqueueDeferredAction queues only the action part (the condition was
// evaluated immediately and held).
func (e *Engine) enqueueDeferredAction(top *txn.Txn, r *Rule, in *event.Instance) {
	q := e.deferredQueue(top)
	q.mu.Lock()
	q.entries = append(q.entries, deferredEntry{rule: r, in: in, at: e.clk.Now(), actionOnly: true})
	q.mu.Unlock()
	e.met.deferredDepth.Add(1)
}

// runDeferred drains the top-level transaction's deferred queue at
// EOT. Rules run as subtransactions in priority order; when the
// SimpleBeforeComplex policy is on, rules triggered by simple events
// fire ahead of rules triggered by composite events (§6.4). Rules may
// enqueue further deferred work; rounds are bounded.
func (e *Engine) runDeferred(top *txn.Txn) error {
	q, ok := top.Value(deferredKey{}).(*deferredQueue)
	if !ok {
		return nil
	}
	for round := 0; ; round++ {
		if round >= e.opts.MaxDeferredRounds {
			return fmt.Errorf("eca: deferred rule cascade exceeded %d rounds in txn %d",
				e.opts.MaxDeferredRounds, top.ID())
		}
		q.mu.Lock()
		batch := q.entries
		q.entries = nil
		q.mu.Unlock()
		if len(batch) == 0 {
			return nil
		}
		e.met.deferredDepth.Add(-int64(len(batch)))
		// The governor's second shed rung: from the shedding state on,
		// the whole batch is dead-lettered instead of executed and the
		// triggering transaction commits without it. Deferred rules run
		// in subtransactions of the trigger, so the only semantics lost
		// is the rule work itself — which is exactly what the record in
		// the dead-letter queue preserves for replay. Immediate rules
		// are untouched: they already ran inline, inside the trigger.
		if e.gov.ShouldShed(governor.ClassDeferred) {
			for _, entry := range batch {
				e.gov.NoteShed(governor.ClassDeferred)
				e.exec.addDeadLetter(entry.rule, entry.in, 0, governor.ErrOverloaded, "governor-shed")
			}
			continue
		}
		e.met.rounds.Inc()
		e.met.roundDepth.SetMax(int64(round + 1))
		e.orderDeferred(batch)
		if err := e.runDeferredBatch(top, batch); err != nil {
			return err
		}
	}
}

func (e *Engine) orderDeferred(batch []deferredEntry) {
	tb := e.opts.TieBreak
	sbc := e.opts.SimpleBeforeComplex
	sort.SliceStable(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		if sbc {
			as := a.in.Kind != event.KindComposite
			bs := b.in.Kind != event.KindComposite
			if as != bs {
				return as
			}
		}
		return ruleLess(a.rule, b.rule, tb)
	})
}

func (e *Engine) runDeferredBatch(top *txn.Txn, batch []deferredEntry) error {
	run := func(entry deferredEntry) error {
		// The queue-wait span: enqueue (during the transaction) to
		// dequeue (EOT processing).
		e.met.deferredDwell.Observe(e.clk.Now().Sub(entry.at))
		e.span(entry.in.Trace, "enqueue-deferred", entry.rule.Name, entry.at)
		child, err := top.BeginChild()
		if err != nil {
			return fmt.Errorf("eca: deferred rule %s: %w", entry.rule.Name, err)
		}
		e.met.firedDeferred.Inc()
		start := e.clk.Now()
		defer func() { e.met.latDeferred.Observe(e.clk.Now().Sub(start)) }()
		if entry.actionOnly {
			return e.runActionOnly(child, entry.rule, entry.in)
		}
		return e.runRuleGuarded(context.Background(), child, entry.rule, entry.in)
	}
	if e.opts.Exec == ParallelExec && len(batch) > 1 {
		// The batch runs on its own bounded goroutine set, not the
		// detached pool: detached rules may block on locks held by the
		// very transaction whose EOT is running this batch, so sharing
		// the pool could deadlock the commit. Panics are recovered in
		// the batch worker and surface as that entry's error.
		fns := make([]func() error, len(batch))
		for i, entry := range batch {
			entry := entry
			fns[i] = func() error { return run(entry) }
		}
		return errors.Join(runBatch(fns)...)
	}
	for _, entry := range batch {
		if err := run(entry); err != nil {
			return err
		}
	}
	return nil
}

// dropDeferred discards an aborting transaction's queued deferred
// work — the firings die with their trigger — and releases the
// governor's depth accounting for them.
func (e *Engine) dropDeferred(top *txn.Txn) {
	q, ok := top.Value(deferredKey{}).(*deferredQueue)
	if !ok {
		return
	}
	q.mu.Lock()
	n := len(q.entries)
	q.entries = nil
	q.mu.Unlock()
	if n > 0 {
		e.met.deferredDepth.Add(-int64(n))
	}
}

// runActionOnly executes just the action part of a rule whose
// condition was already evaluated immediately (imm/def split), with
// the same panic containment as a full rule body.
func (e *Engine) runActionOnly(t *txn.Txn, r *Rule, in *event.Instance) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = e.recoverRulePanic(t, r, in, p)
		}
	}()
	t.SetTrace(in.Trace)
	t.SetValue(cascadeKey{}, in.Depth+1)
	rc := &RuleCtx{Engine: e, DB: e.db, Txn: t, Trigger: in, Context: context.Background()}
	as := e.clk.Now()
	aerr := r.Action(rc)
	e.met.phaseAction.Observe(e.clk.Now().Sub(as))
	e.span(in.Trace, "action-exec", r.Name, as)
	if aerr != nil {
		e.abortRuleTxn(t, r, in, aerr)
		return fmt.Errorf("eca: deferred rule %s action: %w", r.Name, aerr)
	}
	return e.commitRuleTxn(t, r, in)
}

// Detached firings are routed to the supervised executor; see
// spawnDetached in executor.go.
