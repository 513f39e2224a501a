package core

import (
	"strings"
	"testing"

	"repro/internal/oodb"
)

// newTankSystem opens an in-memory system with a monitored Tank class
// whose fill/drain methods give rule sets something real to trigger
// on, so the closed-world analysis sees them in the dictionary.
func newTankSystem(t *testing.T, opts Options) *System {
	t.Helper()
	sys, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	tank := oodb.NewClass("Tank", oodb.Attr{Name: "level", Type: oodb.TInt})
	tank.Monitored = true
	for _, m := range []string{"fill", "drain"} {
		tank.Method(m, func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
			return nil, nil
		})
	}
	if err := sys.RegisterClass(tank); err != nil {
		t.Fatal(err)
	}
	return sys
}

const cycleSrc = `
rule PingA {
    prio 5;
    decl Tank *t;
    event after t->fill();
    action imm t->drain();
};

rule PongB {
    prio 4;
    decl Tank *t;
    event before t->drain();
    action imm t->fill();
};
`

// TestStrictRulesRejectsCycle: under Options.StrictRules a load whose
// addition forms an immediate-coupling cycle is refused wholesale —
// nothing registers — while the same set with a justified lint:allow
// loads.
func TestStrictRulesRejectsCycle(t *testing.T) {
	sys := newTankSystem(t, Options{StrictRules: true})

	_, err := sys.LoadRules(cycleSrc)
	if err == nil {
		t.Fatal("strict load of a rule cycle succeeded")
	}
	for _, want := range []string{"rule-set analysis rejects load", "rule cycle PingA -> PongB -> PingA"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}

	// The refusal must have registered nothing: re-loading the same
	// rule names with a justification attached succeeds (a leftover
	// PingA would collide).
	suppressed := "# lint:allow termination the plant interlock bounds this loop\n" + strings.TrimLeft(cycleSrc, "\n")
	loaded, err := sys.LoadRules(suppressed)
	if err != nil {
		t.Fatalf("suppressed cycle refused: %v", err)
	}
	if len(loaded.Rules) != 2 {
		t.Errorf("loaded %d rules, want 2", len(loaded.Rules))
	}
}

// TestStrictRulesRejectsUnknownMethod: the closed world built from the
// data dictionary turns a trigger on an unregistered method into a
// reachability error.
func TestStrictRulesRejectsUnknownMethod(t *testing.T) {
	sys := newTankSystem(t, Options{StrictRules: true})
	_, err := sys.LoadRules(`
rule Ghost {
    prio 1;
    decl Tank *t;
    event after t->nosuch();
    action imm abort "never";
};
`)
	if err == nil || !strings.Contains(err.Error(), "not registered in the data dictionary") {
		t.Fatalf("unknown method not rejected, err = %v", err)
	}
}

// TestLoadRulesMaintainsCascadeBound: an acyclic set installs its
// static depth bound on the engine; a later load that closes a cycle
// clears it, leaving only the configured ceiling.
func TestLoadRulesMaintainsCascadeBound(t *testing.T) {
	sys := newTankSystem(t, Options{})
	_, err := sys.LoadRules(`
rule ChainA {
    prio 5;
    decl Tank *t;
    event after t->fill();
    action imm t->drain();
};

rule ChainB {
    prio 4;
    decl Tank *t;
    event after t->drain();
    action imm abort "stop";
};
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine.CascadeBound(); got != 2 {
		t.Errorf("CascadeBound() = %d after 2-rule chain, want 2", got)
	}

	if _, err := sys.LoadRules(`
rule CycleC {
    prio 3;
    decl Tank *t;
    event before t->drain();
    action imm t->fill();
};
`); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine.CascadeBound(); got != 0 {
		t.Errorf("CascadeBound() = %d after cycle load, want 0 (cleared)", got)
	}

	res := sys.RuleAnalysis()
	if len(res.Cycles) != 1 {
		t.Fatalf("RuleAnalysis found %d cycles, want 1", len(res.Cycles))
	}
	if !res.HasErrors() {
		t.Error("immediate cycle did not surface as an error")
	}
	// Cross-load edges: ChainA (load 1) triggers CycleC (load 2).
	if n := res.Graph.Node("ChainA"); n == nil || !n.InCycle {
		t.Error("ChainA not marked in-cycle across loads")
	}
}

// dupChain is a two-rule chain whose rules share the name X: the first
// X's action calls drain, which the second X triggers on.
const dupChain = `
rule X {
    prio 5;
    decl Tank *t;
    event after t->fill();
    action imm t->drain();
};

rule X {
    prio 4;
    decl Tank *t;
    event after t->drain();
    action imm set t.level = 1;
};
`

// TestDuplicateNamesCountInCascadeBound: both rules named X join the
// triggering graph, so the installed bound covers the whole chain and
// fill() runs it; a strict load refuses the set for its duplicate name.
func TestDuplicateNamesCountInCascadeBound(t *testing.T) {
	sys := newTankSystem(t, Options{})
	if _, err := sys.LoadRules(dupChain); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine.CascadeBound(); got != 2 {
		t.Errorf("CascadeBound() = %d, want 2", got)
	}
	tx := sys.Begin()
	obj, err := sys.DB.NewObject(tx, "Tank")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DB.Invoke(tx, obj, "fill"); err != nil {
		t.Fatalf("Invoke(fill) = %v, want nil", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	strict := newTankSystem(t, Options{StrictRules: true})
	_, err = strict.LoadRules(dupChain)
	if err == nil || !strings.Contains(err.Error(), "[names] error: duplicate rule name") {
		t.Fatalf("strict load of duplicate names: err = %v, want a [names] finding", err)
	}
}

// TestStrictRulesRejectsUnknownPolicy: a strict load refuses the
// per-rule errors too — an unknown consumption policy would otherwise
// run silently as chronicle.
func TestStrictRulesRejectsUnknownPolicy(t *testing.T) {
	sys := newTankSystem(t, Options{StrictRules: true})
	_, err := sys.LoadRules(`
rule Newest {
    decl Tank *t;
    event seq(after t->fill(), after t->drain());
    policy newest;
    action deferred abort "x";
};
`)
	if err == nil || !strings.Contains(err.Error(), `[composite] error: unknown consumption policy "newest"`) {
		t.Fatalf("strict load with policy newest: err = %v, want a [composite] finding", err)
	}
}
