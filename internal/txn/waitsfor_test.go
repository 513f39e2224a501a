package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The tests below pin the waits-for graph's derivation rules for
// nested transactions. None of them arms a deadline: a cycle the
// graph cannot see shows up as a request that never returns, which
// within reports as a failure.

const lockBound = 5 * time.Second

func mustLock(t *testing.T, tx *Txn, res uint64, mode LockMode) {
	t.Helper()
	if err := tx.Lock(res, mode); err != nil {
		t.Fatalf("txn %d lock %d %v: %v", tx.ID(), res, mode, err)
	}
}

// lockAsync issues a lock request on its own goroutine.
func lockAsync(tx *Txn, res uint64, mode LockMode) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- tx.Lock(res, mode) }()
	return ch
}

// within returns the request's outcome, failing the test when it does
// not arrive in bounded time.
func within(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(lockBound):
		t.Fatalf("%s: no outcome within %v (undetected deadlock)", what, lockBound)
		return nil
	}
}

// awaitBlocked waits until tx's request ch is parked in the lock table,
// failing if the request returns instead.
func awaitBlocked(t *testing.T, m *Manager, tx *Txn, ch <-chan error) {
	t.Helper()
	deadline := time.Now().Add(lockBound)
	for {
		m.locks.wfMu.Lock()
		_, parked := m.locks.waitsFor[tx]
		m.locks.wfMu.Unlock()
		if parked {
			return
		}
		select {
		case err := <-ch:
			t.Fatalf("txn %d: request returned %v, want it to block", tx.ID(), err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("txn %d never blocked", tx.ID())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNestedCrossDeadlockDetected is the cross pattern: two top-level
// transactions each run a subtransaction that blocks on the other
// top. Each top waits on its child in code, not in the lock table, so
// the cycle exists only through the rule that a transaction waits on
// what its waiting descendants wait on.
func TestNestedCrossDeadlockDetected(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustLock(t, t1, 1, LockExclusive)
	mustLock(t, t2, 2, LockExclusive)
	c1, _ := t1.BeginChild()
	c2, _ := t2.BeginChild()

	first := lockAsync(c1, 2, LockExclusive)
	awaitBlocked(t, m, c1, first)
	if err := within(t, lockAsync(c2, 1, LockExclusive), "second child"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second child err = %v, want ErrDeadlock", err)
	}
	t2.Abort() // the victim's tree gives up; the survivor proceeds
	if err := within(t, first, "surviving child"); err != nil {
		t.Fatalf("surviving child err = %v", err)
	}
	c1.Commit()
	t1.Commit()
}

// TestNestedUpgradeDeadlockDetected is the read-modify-write shape of
// a rule firing: both tops hold S on a shared object (inherited from
// earlier rule subtransactions) and each top's next subtransaction asks
// for X.
func TestNestedUpgradeDeadlockDetected(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustLock(t, t1, 1, LockShared)
	mustLock(t, t2, 1, LockShared)
	c1, _ := t1.BeginChild()
	c2, _ := t2.BeginChild()

	first := lockAsync(c1, 1, LockExclusive)
	awaitBlocked(t, m, c1, first)
	if err := within(t, lockAsync(c2, 1, LockExclusive), "second upgrade"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrade err = %v, want ErrDeadlock", err)
	}
	t2.Abort()
	if err := within(t, first, "surviving upgrade"); err != nil {
		t.Fatalf("surviving upgrade err = %v", err)
	}
	c1.Commit()
	t1.Commit()
}

// TestCycleThroughHoldersParent: a stranger blocks on a child's lock,
// and then the child's side asks for what the stranger holds — the
// parent itself or a sibling of the holder. The child's locks end with
// its parent (inherit moves them there on commit), so the stranger's
// edge reaches the parent and the cycle must be seen, whether the
// child has committed by then or is still running.
func TestCycleThroughHoldersParent(t *testing.T) {
	for _, committed := range []bool{true, false} {
		for _, closer := range []string{"parent", "sibling"} {
			t.Run(fmt.Sprintf("committed=%v/%s", committed, closer), func(t *testing.T) {
				m := NewManager()
				top := m.Begin()
				child, _ := top.BeginChild()
				mustLock(t, child, 1, LockExclusive)
				stranger := m.Begin()
				mustLock(t, stranger, 2, LockExclusive)

				waiting := lockAsync(stranger, 1, LockExclusive)
				awaitBlocked(t, m, stranger, waiting)
				if committed {
					if err := child.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				req := top
				if closer == "sibling" {
					req, _ = top.BeginChild()
				}
				if err := within(t, lockAsync(req, 2, LockExclusive), closer); !errors.Is(err, ErrDeadlock) {
					t.Fatalf("%s err = %v, want ErrDeadlock", closer, err)
				}
				top.Abort()
				if err := within(t, waiting, "stranger"); err != nil {
					t.Fatalf("stranger err = %v", err)
				}
				stranger.Commit()
			})
		}
	}
}

// TestSiblingWaitsNoFalseDeadlock: sibling subtransactions (as
// ParallelExec runs them) queue on each other. When one commits, its
// lock passes to the parent — an ancestor of the waiting sibling — so
// the sibling's edge must vanish rather than land on the parent, where
// it would close a false cycle through the next sibling's ancestor.
func TestSiblingWaitsNoFalseDeadlock(t *testing.T) {
	m := NewManager()
	parent := m.Begin()
	c1, _ := parent.BeginChild()
	c2, _ := parent.BeginChild()
	c3, _ := parent.BeginChild()
	reader := m.Begin()
	mustLock(t, c1, 1, LockShared)
	mustLock(t, reader, 1, LockShared)

	w2 := lockAsync(c2, 1, LockExclusive) // waits on c1 and reader
	awaitBlocked(t, m, c2, w2)
	if err := c1.Commit(); err != nil { // c1's S passes to parent
		t.Fatal(err)
	}
	w3 := lockAsync(c3, 1, LockExclusive) // queued behind c2
	awaitBlocked(t, m, c3, w3)

	reader.Commit()
	if err := within(t, w2, "c2"); err != nil {
		t.Fatalf("c2 err = %v", err)
	}
	c2.Commit()
	if err := within(t, w3, "c3"); err != nil {
		t.Fatalf("c3 err = %v", err)
	}
	c3.Commit()
	if err := parent.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestOvertakingGrantJoinsGraph: a subtransaction whose ancestor
// holds the lock is granted ahead of the queue (closed nesting), so
// the queued request now waits on it too. The graph must learn that
// edge, or the upgrade deadlock it later closes goes unseen. This is
// the shape of sibling rule bodies that read and then write one
// object under ParallelExec.
func TestOvertakingGrantJoinsGraph(t *testing.T) {
	m := NewManager()
	parent := m.Begin()
	mustLock(t, parent, 1, LockExclusive)
	c0, _ := parent.BeginChild()
	c1, _ := parent.BeginChild()
	c2, _ := parent.BeginChild()
	mustLock(t, c0, 1, LockShared)
	mustLock(t, c1, 1, LockShared)

	up0 := lockAsync(c0, 1, LockExclusive) // waits on c1
	awaitBlocked(t, m, c0, up0)
	mustLock(t, c2, 1, LockShared) // overtakes c0's queued upgrade
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := within(t, lockAsync(c2, 1, LockExclusive), "c2 upgrade"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("c2 upgrade err = %v, want ErrDeadlock", err)
	}
	c2.Abort()
	if err := within(t, up0, "c0 upgrade"); err != nil {
		t.Fatalf("c0 upgrade err = %v", err)
	}
	c0.Commit()
	if err := parent.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSiblingsNoFalseDeadlock runs sibling subtransactions on
// parallel goroutines, all taking the same two locks in the same
// order: they serialize on each other, but no cycle exists, so none
// may be chosen as a deadlock victim.
func TestParallelSiblingsNoFalseDeadlock(t *testing.T) {
	m := NewManager()
	for round := 0; round < 20; round++ {
		parent := m.Begin()
		const n = 4
		errs := make(chan error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			c, err := parent.BeginChild()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, res := range []uint64{1, 2} {
					if err := c.Lock(res, LockExclusive); err != nil {
						errs <- err
						c.Abort()
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
				errs <- c.Commit()
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(lockBound):
			t.Fatal("siblings hung")
		}
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: sibling err = %v", round, err)
			}
		}
		if err := parent.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}
