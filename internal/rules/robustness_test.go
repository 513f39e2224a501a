package rules

import (
	"testing"
	"time"

	"repro/internal/eca"
)

// TestParseRobustnessClauses pins the supervised-executor clauses:
// timeout takes a duration, retry and breaker take integers, and all
// three land on the declaration.
func TestParseRobustnessClauses(t *testing.T) {
	decls, err := Parse(`
rule Guarded {
    decl River *r, int x;
    event after r->updateWaterLevel(x);
    timeout 500ms;
    retry 2;
    breaker 4;
    action detached r->getWaterTemp();
};`)
	if err != nil {
		t.Fatal(err)
	}
	d := decls[0]
	if d.Timeout != 500*time.Millisecond {
		t.Errorf("Timeout = %v, want 500ms", d.Timeout)
	}
	if !d.RetrySet || d.Retry != 2 {
		t.Errorf("Retry = %d (set=%v), want 2", d.Retry, d.RetrySet)
	}
	if !d.BreakerSet || d.Breaker != 4 {
		t.Errorf("Breaker = %d (set=%v), want 4", d.Breaker, d.BreakerSet)
	}
}

// TestCompileRobustnessClauses checks the language→engine spelling:
// positive values pass through, and an explicit 0 ("disabled") maps
// to the engine's negative override so the engine default does not
// resurface.
func TestCompileRobustnessClauses(t *testing.T) {
	e, _, _ := newPlant(t)
	loaded, err := Load(e, `
rule Tuned {
    decl River *r, int x;
    event after r->updateWaterLevel(x);
    timeout 250ms;
    retry 0;
    breaker 3;
    action detached r->getWaterTemp();
};`)
	if err != nil {
		t.Fatal(err)
	}
	r := loaded.Rules[0]
	if r.Timeout != 250*time.Millisecond {
		t.Errorf("Rule.Timeout = %v, want 250ms", r.Timeout)
	}
	if r.Retries != -1 {
		t.Errorf("Rule.Retries = %d, want -1 (retry 0 disables)", r.Retries)
	}
	if r.Breaker != 3 {
		t.Errorf("Rule.Breaker = %d, want 3", r.Breaker)
	}
	if r.ActionMode != eca.Detached {
		t.Errorf("ActionMode = %v, want detached", r.ActionMode)
	}
}
