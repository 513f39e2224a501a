package core

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eca"
	"repro/internal/fault"
	"repro/internal/governor"
)

// soakDuration scales the overload soak to how it was invoked: 5s
// under -short (the CI soak), REACH_SOAK (e.g. 60s via `make soak`)
// when set, and a 2s sanity pass in a plain `go test ./...` so the
// tier-1 suite stays fast.
func soakDuration() time.Duration {
	if testing.Short() {
		return 5 * time.Second
	}
	if s := os.Getenv("REACH_SOAK"); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d > 0 {
			return d
		}
		return 60 * time.Second
	}
	return 2 * time.Second
}

// TestOverloadSoak runs a persistent system under sustained overload
// with faults armed and released in waves: writers hammer a slow
// detached rule while a chaos loop repeatedly breaks the checkpointer
// (fault.SiteCkptMaster) — storage backpressure the governor must
// translate into degradation — and periodically escalates a synthetic
// resource to Shedding. The soak asserts the system neither wedges
// nor leaks: writes keep committing (or being refused cleanly) in
// every wave, reads always work, the heap stays bounded, and after
// the faults stop the governor recovers to healthy, a checkpoint
// succeeds, and the graceful shutdown sequence completes cleanly.
func TestOverloadSoak(t *testing.T) {
	dur := soakDuration()
	dir := t.TempDir()
	sys, err := Open(Options{
		Dir: dir,
		Engine: eca.Options{Workers: 2, Queue: 8, Governor: governor.Options{
			Hysteresis:    100 * time.Millisecond,
			AdmitDeadline: 5 * time.Millisecond,
			Interval:      time.Millisecond,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		fault.DisarmAll()
		if !closed {
			_ = sys.Close()
		}
	})
	registerTank(t, sys, 2*time.Millisecond)
	obj := mkTank(t, sys)
	var esc atomic.Int64
	sys.Governor.Register("test-escalation", esc.Load, governor.Levels{Degraded: 1, Shedding: 2})

	var committed, refused, reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch err := fire(sys, obj); {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, governor.ErrOverloaded):
					refused.Add(1)
				default:
					t.Errorf("soak writer: %v", err)
					return
				}
			}
		}()
	}
	// A reader: never admission-controlled, must work at every rung.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := sys.Begin()
			if _, err := sys.DB.Get(tx, obj, "level"); err != nil {
				t.Errorf("soak reader: %v", err)
				_ = tx.Abort() // secondary to the reported error
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("soak reader commit: %v", err)
				return
			}
			reads.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	// Chaos waves: break the checkpointer for a third of each wave
	// (three failed checkpoints flip the degraded flag the governor
	// watches), escalate to Shedding for another third, then lift
	// everything and let the system walk back down.
	wave := dur / 4
	if wave < 200*time.Millisecond {
		wave = 200 * time.Millisecond
	}
	sawDegraded, sawShedding := false, false
	var ms runtime.MemStats
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		if err := fault.Arm(fault.SiteCkptMaster, "error"); err != nil {
			t.Fatal(err)
		}
		// Each attempt commits a write first so the WAL has grown and
		// the checkpoint cannot take the idle short-circuit before the
		// fault site. A plain Begin bypasses admission control, so the
		// poke lands at every rung of the ladder. One nil is tolerated:
		// a background checkpoint already past the fault site when the
		// policy armed can complete and briefly make an attempt idle.
		failed := 0
		for i := 0; i < 4; i++ {
			tx := sys.Begin()
			if err := sys.DB.Set(tx, obj, "level", time.Now().UnixNano()); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := sys.DB.Checkpoint(); err != nil {
				failed++
			}
		}
		if failed < 3 {
			t.Errorf("only %d/4 checkpoints failed with ckpt.master armed", failed)
		}
		spin(t, sys, wave/3, &sawDegraded, &sawShedding)
		esc.Store(2)
		spin(t, sys, wave/3, &sawDegraded, &sawShedding)
		esc.Store(0)
		fault.Disarm(fault.SiteCkptMaster)
		spin(t, sys, wave/3, &sawDegraded, &sawShedding)
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > 512<<20 {
			t.Fatalf("heap grew to %d MiB mid-soak", ms.HeapAlloc>>20)
		}
	}
	close(stop)
	wg.Wait()

	if !sawDegraded || !sawShedding {
		t.Errorf("soak never exercised the ladder: degraded=%v shedding=%v", sawDegraded, sawShedding)
	}
	if committed.Load() == 0 || reads.Load() == 0 {
		t.Fatalf("no forward progress: committed=%d reads=%d", committed.Load(), reads.Load())
	}
	// The faults are gone: a checkpoint succeeds (clearing the
	// degraded flag) and the governor recovers to healthy.
	if err := sys.DB.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after disarm: %v", err)
	}
	waitFor(t, "recovery to healthy", func() bool {
		return sys.Governor.State() == governor.Healthy
	})
	t.Logf("soak %v: committed=%d refused=%d reads=%d sheds=%v",
		dur, committed.Load(), refused.Load(), reads.Load(), sys.Governor.Sheds())

	// Graceful shutdown: admissions refused, executor drained, final
	// checkpoint taken, store closed — and the directory reopens.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown after soak: %v", err)
	}
	closed = true
	reopened, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after soak shutdown: %v", err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
}

// spin samples the governor while the chaos wave holds, recording
// which rungs of the ladder the soak visited.
func spin(t *testing.T, sys *System, d time.Duration, sawDegraded, sawShedding *bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		switch st := sys.Governor.State(); {
		case st >= governor.Shedding:
			*sawShedding = true
		case st >= governor.Degraded:
			*sawDegraded = true
		}
		time.Sleep(time.Millisecond)
	}
}
