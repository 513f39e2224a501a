package rules

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/eca"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// newTally registers a Counter class and names one instance
// "Tally" in the persistent roots. Its bump method reads and then
// writes the receiver.
func newTally(t *testing.T, db *oodb.DB) *oodb.Object {
	t.Helper()
	counter := oodb.NewClass("Counter", oodb.Attr{Name: "total", Type: oodb.TInt})
	counter.Method("bump", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		v, err := ctx.GetInt(self, "total")
		if err != nil {
			return nil, err
		}
		return nil, ctx.Set(self, "total", v+args[0].(int64))
	})
	if err := db.Dictionary().Register(counter); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	c, err := db.NewObject(tx, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetRoot(tx, "Tally", c); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return c
}

func tallyTotal(t *testing.T, db *oodb.DB, c *oodb.Object) int64 {
	t.Helper()
	tx := db.Begin()
	defer tx.Commit()
	v, err := (&oodb.Ctx{DB: db, Txn: tx}).GetInt(c, "total")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestWriteSet(t *testing.T) {
	decls, err := Parse(`
rule R {
    decl River *r, int x, Reactor *a named "A", Reactor *b named "B", Counter *c named "C";
    event after r->updateWaterLevel(x);
    cond imm b->getHeatOutput() > 0;
    action imm a->reducePlannedPower(b->getHeatOutput()), set c.total = c.total + x;
};`)
	if err != nil {
		t.Fatal(err)
	}
	// Set targets are bound X from the start; call receivers — b's
	// call sits in an argument list — only once a firing wrote them.
	w := newWriteSet(decls[0].Actions)
	got := make(map[string]bool, len(w))
	for name := range w {
		got[name] = w.forUpdate(name)
	}
	if want := map[string]bool{"a": false, "b": false, "c": true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("write set = %v, want %v", got, want)
	}
}

// TestImmediateReadModifyWriteNoVictims: two clients fire an
// immediate rule that reads and then writes the same named root. The
// root is in the rule's write set, so each firing loads it under X
// when the condition first reads it; the second client waits instead
// of deadlocking on an S→X upgrade.
func TestImmediateReadModifyWriteNoVictims(t *testing.T) {
	e, db, _ := newPlant(t)
	tally := newTally(t, db)
	if _, err := Load(e, `
rule Count {
    decl River *r, int x, Counter *c named "Tally";
    event after r->updateWaterLevel(x);
    cond imm c.total >= 0;
    action imm set c.total = c.total + x;
};`); err != nil {
		t.Fatal(err)
	}
	const clients, iterations = 2, 200
	rivers := make([]*oodb.Object, clients)
	tx := db.Begin()
	for i := range rivers {
		var err error
		if rivers[i], err = db.NewObject(tx, "River"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(river *oodb.Object) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				tx := db.Begin()
				if _, err := db.Invoke(tx, river, "updateWaterLevel", int64(1)); err != nil {
					tx.Abort()
					errs <- fmt.Errorf("iteration %d: %w", i, err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("iteration %d commit: %w", i, err)
					return
				}
			}
		}(rivers[c])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if errors.Is(err, txn.ErrDeadlock) {
			t.Fatalf("deadlock victim: %v", err)
		}
		t.Fatal(err)
	}
	if got := tallyTotal(t, db, tally); got != clients*iterations {
		t.Fatalf("total = %d, want %d", got, clients*iterations)
	}
}

// TestDetachedReadModifyWriteNoRetries: eight detached firings of
// `set c.total = c.total + x` run at once on the executor's workers.
// Each loads the counter under X, so they serialize without a single
// deadlock victim, and the total is exact. The action reads the
// counter and then the river, which the trigger holds X until it
// commits; the trigger waits a moment first, so every firing reaches
// the counter before any of them can write it. (The `0 * r.level`
// term is that read of the river: variables bind on first use, and
// without it no firing would wait for the trigger.)
func TestDetachedReadModifyWriteNoRetries(t *testing.T) {
	e, db, _ := newPlant(t)
	tally := newTally(t, db)
	if _, err := Load(e, `
rule Accumulate {
    decl River *r, int x, Counter *c named "Tally";
    event after r->updateWaterLevel(x);
    action detached set c.total = c.total + x + 0 * r.level;
};`); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	river, err := db.NewObject(tx, "River")
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for x := int64(1); x <= 8; x++ {
		if _, err := db.Invoke(tx, river, "updateWaterLevel", x); err != nil {
			t.Fatal(err)
		}
		want += x
	}
	time.Sleep(50 * time.Millisecond) // let the workers pick the firings up
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.WaitDetached()
	if got := e.Metrics().Counter("reach_rule_retries_total", "").Value(); got != 0 {
		t.Fatalf("executor retried %d firings, want 0", got)
	}
	if dl := e.DeadLetters(); len(dl) != 0 {
		t.Fatalf("dead letters: %+v", dl)
	}
	if got := tallyTotal(t, db, tally); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

// TestObjectParamBoundForUpdate: the counter arrives as an event
// argument, not as a named root. An object-valued parameter resolves
// like a receiver, so the write set loads it under X and eight
// concurrent detached firings of `set c.total = c.total + x` need no
// retry. As above, each firing reads the counter and then the probe,
// which the trigger holds X until it commits.
func TestObjectParamBoundForUpdate(t *testing.T) {
	e, db, _ := newPlant(t)
	tally := newTally(t, db)
	probe := oodb.NewClass("Probe", oodb.Attr{Name: "last", Type: oodb.TInt})
	probe.Monitored = true
	probe.Method("report", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "last", args[1])
	})
	if err := db.Dictionary().Register(probe); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(e, `
rule Aggregate {
    decl Probe *p, Counter *c, int x;
    event after p->report(c, x);
    action detached set c.total = c.total + x + 0 * p.last;
};`); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	p, err := db.NewObject(tx, "Probe")
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for x := int64(1); x <= 8; x++ {
		if _, err := db.Invoke(tx, p, "report", tally, x); err != nil {
			t.Fatal(err)
		}
		want += x
	}
	time.Sleep(50 * time.Millisecond) // let the workers pick the firings up
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.WaitDetached()
	if got := e.Metrics().Counter("reach_rule_retries_total", "").Value(); got != 0 {
		t.Fatalf("executor retried %d firings, want 0", got)
	}
	if dl := e.DeadLetters(); len(dl) != 0 {
		t.Fatalf("dead letters: %+v", dl)
	}
	if got := tallyTotal(t, db, tally); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

// loadAndFire loads one rule, then raises its trigger n times in one
// transaction on a fresh river, holding the river X for a moment
// before the commit so detached firings start together.
func loadAndFire(t *testing.T, e *eca.Engine, db *oodb.DB, src string, n int) {
	t.Helper()
	if _, err := Load(e, src); err != nil {
		t.Fatal(err)
	}
	fire := func(n int) {
		tx := db.Begin()
		river, err := db.NewObject(tx, "River")
		if err != nil {
			t.Fatal(err)
		}
		for x := 1; x <= n; x++ {
			if _, err := db.Invoke(tx, river, "updateWaterLevel", int64(x)); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(50 * time.Millisecond)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		e.WaitDetached()
	}
	fire(1) // warm-up: lets the rule observe what its action writes
	fire(n)
}

// TestWrittenReceiverLearned: the action calls a method that writes
// its receiver. After one firing has been seen to write it, firings
// bind the receiver under X, so eight concurrent ones need no retry.
func TestWrittenReceiverLearned(t *testing.T) {
	e, db, _ := newPlant(t)
	tally := newTally(t, db)
	loadAndFire(t, e, db, `
rule Bump {
    decl River *r, int x, Counter *c named "Tally";
    event after r->updateWaterLevel(x);
    action detached c->bump(x);
};`, 8)
	if got := e.Metrics().Counter("reach_rule_retries_total", "").Value(); got != 0 {
		t.Fatalf("executor retried %d firings, want 0", got)
	}
	if got := tallyTotal(t, db, tally); got != 1+36 {
		t.Fatalf("total = %d, want %d", got, 1+36)
	}
}

// TestReadOnlyReceiverStaysShared: the action calls a method that only
// reads its receiver, and two firings must be inside it at once. Had
// the receiver been bound under X, the second firing would wait for
// the first, which waits for the second.
func TestReadOnlyReceiverStaysShared(t *testing.T) {
	e, db, _ := newPlant(t)
	var mu sync.Mutex
	arrived := 0
	all := make(chan struct{})
	board := oodb.NewClass("Board", oodb.Attr{Name: "name", Type: oodb.TString})
	board.Method("meet", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		if _, err := ctx.Get(self, "name"); err != nil {
			return nil, err
		}
		mu.Lock()
		if arrived++; arrived == 3 { // the warm-up firing, then the pair
			close(all)
		}
		n := arrived
		mu.Unlock()
		if n == 1 {
			return nil, nil
		}
		select {
		case <-all:
			return nil, nil
		case <-time.After(5 * time.Second):
			return nil, errors.New("the other firing never arrived")
		}
	})
	if err := db.Dictionary().Register(board); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	b, err := db.NewObject(tx, "Board")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetRoot(tx, "Board", b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	loadAndFire(t, e, db, `
rule Meet {
    decl River *r, int x, Board *b named "Board";
    event after r->updateWaterLevel(x);
    action detached b->meet();
};`, 2)
	if dl := e.DeadLetters(); len(dl) != 0 {
		t.Fatalf("dead letters: %+v", dl)
	}
	select {
	case <-all:
	default:
		t.Fatalf("%d of 3 firings arrived", arrived)
	}
}
