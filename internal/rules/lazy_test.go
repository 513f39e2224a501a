package rules

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// lowWaterRule reads the reactor only after x < 37 holds, and writes
// it in the action, so the reactor is in the rule's write set.
const lowWaterRule = `
rule LowWater {
    decl River *r, int x, Reactor *reactor named "BlockA";
    event after r->updateWaterLevel(x);
    cond imm x < 37 and reactor.heatOutput > 0;
    action imm set reactor.plannedPower = reactor.plannedPower - 1.0;
};`

// newBlockA names a fresh reactor "BlockA" and creates one river.
func newBlockA(t *testing.T, db *oodb.DB) (reactor, river *oodb.Object) {
	t.Helper()
	tx := db.Begin()
	var err error
	if reactor, err = db.NewObject(tx, "Reactor"); err != nil {
		t.Fatal(err)
	}
	if err := db.Set(tx, reactor, "heatOutput", 2_000_000.0); err != nil {
		t.Fatal(err)
	}
	if err := db.SetRoot(tx, "BlockA", reactor); err != nil {
		t.Fatal(err)
	}
	if river, err = db.NewObject(tx, "River"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return reactor, river
}

// TestFalseConditionLeavesRootUnlocked: the condition short-circuits
// on x before it reaches the named root, so the trigger holds no lock
// on the root afterwards. A true condition reads and writes it, and
// the trigger then holds it X.
func TestFalseConditionLeavesRootUnlocked(t *testing.T) {
	e, db, _ := newPlant(t)
	reactor, river := newBlockA(t, db)
	if _, err := Load(e, lowWaterRule); err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{50, 10} {
		tx := db.Begin()
		if _, err := db.Invoke(tx, river, "updateWaterLevel", x); err != nil {
			t.Fatal(err)
		}
		mode, held := tx.Held()[uint64(reactor.OID())]
		if x >= 37 && held {
			t.Errorf("x=%d: false condition left the reactor locked %v", x, mode)
		}
		if x < 37 && (!held || mode != txn.LockExclusive) {
			t.Errorf("x=%d: reactor lock = %v (held %v), want X", x, mode, held)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFalseConditionsDoNotBlock: two clients keep their transactions
// open after each fired the rule with a false condition. Neither holds
// the reactor, so the second does not wait for the first.
func TestFalseConditionsDoNotBlock(t *testing.T) {
	e, db, _ := newPlant(t)
	_, first := newBlockA(t, db)
	if _, err := Load(e, lowWaterRule); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	second, err := db.NewObject(tx, "River")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	a := db.Begin()
	defer a.Abort()
	if _, err := db.Invoke(a, first, "updateWaterLevel", int64(50)); err != nil {
		t.Fatal(err)
	}
	b := db.Begin()
	done := make(chan error, 1)
	go func() {
		_, err := db.Invoke(b, second, "updateWaterLevel", int64(60))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		a.Abort() // unblocks the second client
		<-done
		t.Fatal("the second client's false-condition firing waited for the first")
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMissingRootInActionOnly: the action names a root that does not
// exist. A false condition never reaches it; a true one fails when
// the action first references it, with the rule named.
func TestMissingRootInActionOnly(t *testing.T) {
	e, db, _ := newPlant(t)
	_, river := newBlockA(t, db)
	if _, err := Load(e, `
rule Ghost {
    decl River *r, int x, Reactor *ghost named "Ghost";
    event after r->updateWaterLevel(x);
    cond imm x < 37;
    action imm set ghost.plannedPower = 1.0;
};`); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := db.Invoke(tx, river, "updateWaterLevel", int64(50)); err != nil {
		t.Fatalf("false condition: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin()
	defer tx.Abort()
	_, err := db.Invoke(tx, river, "updateWaterLevel", int64(10))
	if !errors.Is(err, oodb.ErrNoSuchRoot) {
		t.Fatalf("true condition: err = %v, want ErrNoSuchRoot", err)
	}
	if !strings.Contains(err.Error(), "rule Ghost") {
		t.Fatalf("error %q does not name the rule", err)
	}
}

// TestFalseConditionAllocs bounds the heap allocations of evaluating
// a false condition: binding the firing's variables and running the
// condition up to its short circuit.
func TestFalseConditionAllocs(t *testing.T) {
	e, db, _ := newPlant(t)
	_, river := newBlockA(t, db)
	loaded, err := Load(e, lowWaterRule)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Abort()
	rc := &eca.RuleCtx{
		Engine: e,
		DB:     db,
		Txn:    tx,
		Trigger: &event.Instance{
			SpecKey: event.MethodSpec{Class: "River", Method: "updateWaterLevel", When: event.After}.Key(),
			OID:     uint64(river.OID()),
			Args:    []any{int64(50)},
		},
		Context: context.Background(),
	}
	cond := loaded.Rules[0].Cond
	allocs := testing.AllocsPerRun(100, func() {
		if ok, err := cond(rc); ok || err != nil {
			t.Fatalf("cond = %v, %v; want false", ok, err)
		}
	})
	t.Logf("%.0f allocations per false-condition firing", allocs)
	const most = 5
	if allocs > most {
		t.Fatalf("%.0f allocations per false-condition firing, want at most %d", allocs, most)
	}
}
