package rules

import (
	"fmt"
	"sync/atomic" //lint:allow rawatomics per-rule update-intent flags, not metrics

	"repro/internal/algebra"
	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// Loaded is the result of loading a rule set into an engine.
type Loaded struct {
	Rules      []*eca.Rule
	Composites []*algebra.Composite
	Temporal   []*eca.TemporalHandle
}

// Stop disarms every temporal event source the rule set armed.
func (l *Loaded) Stop() {
	for _, h := range l.Temporal {
		h.Stop()
	}
}

// Load parses src, compiles every rule, defines the composites the
// rules need, arms their temporal event sources, and registers the
// rules with the engine.
func Load(e *eca.Engine, src string) (*Loaded, error) {
	decls, err := Parse(src)
	if err != nil {
		return nil, err
	}
	out := &Loaded{}
	for _, d := range decls {
		r, comps, temps, err := Compile(e, d)
		if err != nil {
			out.Stop()
			return nil, err
		}
		for _, c := range comps {
			if err := e.DefineComposite(c); err != nil {
				out.Stop()
				return nil, fmt.Errorf("rules: rule %s: %w", d.Name, err)
			}
			out.Composites = append(out.Composites, c)
		}
		for _, spec := range temps {
			h, err := e.ArmTemporal(spec)
			if err != nil {
				out.Stop()
				return nil, fmt.Errorf("rules: rule %s: %w", d.Name, err)
			}
			out.Temporal = append(out.Temporal, h)
		}
		if err := e.AddRule(r); err != nil {
			out.Stop()
			return nil, err
		}
		out.Rules = append(out.Rules, r)
	}
	return out, nil
}

// Compile translates one parsed rule declaration into an eca.Rule,
// the composite declarations it needs, and the temporal specs to arm.
// The rule is not registered; Load does that.
func Compile(e *eca.Engine, d *RuleDecl) (*eca.Rule, []*algebra.Composite, []event.TemporalSpec, error) {
	classOf := make(map[string]string, len(d.Decls))
	for _, v := range d.Decls {
		if _, dup := classOf[v.Name]; dup {
			return nil, nil, nil, fmt.Errorf("rules: rule %s: variable %q declared twice", d.Name, v.Name)
		}
		classOf[v.Name] = v.Class
	}

	c := &compiler{decl: d, classOf: classOf}
	expr, err := c.compileEvent(d.Event)
	if err != nil {
		return nil, nil, nil, err
	}

	var comps []*algebra.Composite
	eventKey := ""
	if prim, ok := expr.(algebra.Prim); ok && !c.composite {
		eventKey = prim.Key
	} else {
		comp := &algebra.Composite{
			Name:     d.Name + "__event",
			Expr:     expr,
			Policy:   parsePolicy(d.Policy),
			Scope:    parseScope(d.Scope),
			Validity: d.Validity,
		}
		if comp.Scope == algebra.ScopeGlobal && comp.Validity == 0 {
			return nil, nil, nil, fmt.Errorf("rules: rule %s: global-scope composite event needs a validity clause", d.Name)
		}
		comps = append(comps, comp)
		eventKey = comp.Key()
	}

	r := &eca.Rule{
		Name:       d.Name,
		EventKey:   eventKey,
		Priority:   d.Prio,
		CondMode:   parseMode(d.CondMode),
		ActionMode: parseMode(d.ActionMode),
	}
	if r.ActionMode == 0 {
		r.ActionMode = eca.Detached
	}
	// Supervised-executor attributes: 0 in the language means
	// "disabled", which the engine spells as a negative override.
	r.Timeout = d.Timeout
	if d.RetrySet {
		r.Retries = d.Retry
		if d.Retry <= 0 {
			r.Retries = -1
		}
	}
	if d.BreakerSet {
		r.Breaker = d.Breaker
		if d.Breaker <= 0 {
			r.Breaker = -1
		}
	}
	updates := newWriteSet(d.Actions)
	if d.Cond != nil {
		cond := d.Cond
		decl := d
		bindings := c.bindings
		r.Cond = func(rc *eca.RuleCtx) (bool, error) {
			ev, err := bindEnv(rc, decl, bindings, updates)
			if err != nil {
				return false, err
			}
			v, err := ev.eval(cond)
			if err != nil {
				return false, err
			}
			b, ok := v.(bool)
			if !ok {
				return false, fmt.Errorf("rules: rule %s: condition evaluated to %T, want bool", decl.Name, v)
			}
			return b, nil
		}
	}
	actions := d.Actions
	decl := d
	bindings := c.bindings
	r.Action = func(rc *eca.RuleCtx) error {
		ev, err := bindEnv(rc, decl, bindings, updates)
		if err != nil {
			return err
		}
		for _, s := range actions {
			if err := ev.exec(s); err != nil {
				return err
			}
		}
		updates.learn(rc.Txn, ev.vars)
		return nil
	}
	return r, comps, c.temporal, nil
}

// binding maps a primitive spec key to the variables it populates.
type binding struct {
	key    string
	recv   string   // object variable bound to the event's receiver
	params []string // scalar variables bound positionally to arguments
}

type compiler struct {
	decl      *RuleDecl
	classOf   map[string]string
	bindings  []binding
	temporal  []event.TemporalSpec
	composite bool
}

// compileEvent lowers an event AST into an algebra expression over
// primitive spec keys, recording variable bindings and temporal specs.
func (c *compiler) compileEvent(ev EventExpr) (algebra.Expr, error) {
	switch x := ev.(type) {
	case MethodEvent:
		class, ok := c.classOf[x.Recv]
		if !ok {
			return nil, fmt.Errorf("rules: rule %s: receiver %q not declared", c.decl.Name, x.Recv)
		}
		when := event.Before
		if x.After {
			when = event.After
		}
		key := event.MethodSpec{Class: class, Method: x.Method, When: when}.Key()
		for _, p := range x.Params {
			if _, ok := c.classOf[p]; !ok {
				return nil, fmt.Errorf("rules: rule %s: event parameter %q not declared", c.decl.Name, p)
			}
		}
		c.bindings = append(c.bindings, binding{key: key, recv: x.Recv, params: x.Params})
		return algebra.Prim{Key: key}, nil
	case StateEvent:
		key := event.StateSpec{Class: x.Class, Attr: x.Attr}.Key()
		return algebra.Prim{Key: key}, nil
	case TxnEvent:
		var phase event.TxnPhase
		switch x.Phase {
		case "bot":
			phase = event.BOT
		case "eot":
			phase = event.EOT
		case "commit":
			phase = event.Commit
		case "abort":
			phase = event.Abort
		}
		return algebra.Prim{Key: event.TxnSpec{Phase: phase}.Key()}, nil
	case TimeEvent:
		var spec event.TemporalSpec
		switch x.Kind {
		case "at":
			spec = event.TemporalSpec{Name: c.decl.Name, Temporal: event.Absolute, At: x.At}
		case "every":
			spec = event.TemporalSpec{Name: c.decl.Name, Temporal: event.Periodic, Period: x.Period}
		case "in":
			spec = event.TemporalSpec{Name: c.decl.Name, Temporal: event.Relative, Delay: x.Period}
		}
		c.temporal = append(c.temporal, spec)
		return algebra.Prim{Key: spec.Key()}, nil
	case SeqEvent:
		c.composite = true
		subs, err := c.compileAll(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.Seq{Exprs: subs}, nil
	case AndEvent:
		c.composite = true
		subs, err := c.compileAll(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.Conj{Exprs: subs}, nil
	case OrEvent:
		c.composite = true
		subs, err := c.compileAll(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.Disj{Exprs: subs}, nil
	case NotEvent:
		c.composite = true
		sub, err := c.compileEvent(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.Neg{Of: sub}, nil
	case TimesEvent:
		c.composite = true
		sub, err := c.compileEvent(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.History{Of: sub, Count: x.N}, nil
	case CloseEvent:
		c.composite = true
		sub, err := c.compileEvent(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.Closure{Of: sub}, nil
	}
	return nil, fmt.Errorf("rules: rule %s: unsupported event %T", c.decl.Name, ev)
}

func (c *compiler) compileAll(subs []EventExpr) ([]algebra.Expr, error) {
	out := make([]algebra.Expr, len(subs))
	for i, s := range subs {
		e, err := c.compileEvent(s)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// writeSet is a rule's update intent: the variables its action may
// write, each flagged when firings bind it under X. A set statement's
// target is written whenever the statement runs, so it is bound X
// from the first firing. A method call's receiver — anywhere in the
// action, arguments included — is written only if the method body
// writes it, which the compiler cannot see: it is bound X once a
// firing has been seen to hold X on it after its action, and a
// read-only method's receiver stays shared.
type writeSet map[string]*atomic.Bool

func newWriteSet(actions []Stmt) writeSet {
	w := make(writeSet)
	add := func(name string, written bool) {
		if w[name] == nil {
			w[name] = new(atomic.Bool)
		}
		if written {
			w[name].Store(true)
		}
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case CallExpr:
			add(x.Recv, false)
			for _, a := range x.Args {
				walk(a)
			}
		case BinOp:
			walk(x.L)
			walk(x.R)
		case UnOp:
			walk(x.X)
		}
	}
	for _, s := range actions {
		switch x := s.(type) {
		case CallStmt:
			walk(x.Call)
		case SetStmt:
			add(x.Target.Var, true)
			walk(x.Value)
		}
	}
	return w
}

// forUpdate reports whether firings bind the variable under X.
func (w writeSet) forUpdate(name string) bool {
	x := w[name]
	return x != nil && x.Load()
}

// learn flags the receivers the action just wrote: those on which the
// rule transaction now holds X.
func (w writeSet) learn(t *txn.Txn, vars map[string]any) {
	var held map[uint64]txn.LockMode
	for name, x := range w {
		obj, ok := vars[name].(*oodb.Object)
		if !ok || x.Load() {
			continue
		}
		if held == nil {
			held = t.Held()
		}
		if held[uint64(obj.OID())] == txn.LockExclusive {
			x.Store(true)
		}
	}
}

// bindEnv builds the evaluation environment for one firing: named
// roots are fetched, the event's receiver and parameters are bound
// from the trigger instance (matching composite constituents by spec
// key, in order). Objects the rule's write set flags are bound under
// an exclusive lock from the start, condition included: a firing that
// read them under S and wrote them later would need an S→X upgrade,
// which deadlocks against any concurrent firing of the same shape.
func bindEnv(rc *eca.RuleCtx, d *RuleDecl, bindings []binding, updates writeSet) (*env, error) {
	ev := &env{ctx: rc.Ctx(), vars: make(map[string]any, len(d.Decls))}
	for _, v := range d.Decls {
		if v.Named != "" {
			root := rc.DB.Root
			if updates.forUpdate(v.Name) {
				root = rc.DB.RootForUpdate
			}
			obj, err := root(rc.Txn, v.Named)
			if err != nil {
				return nil, fmt.Errorf("rules: rule %s: %w", d.Name, err)
			}
			ev.vars[v.Name] = obj
		}
	}
	parts := rc.Trigger.Flatten()
	used := make([]bool, len(parts))
	for _, b := range bindings {
		var part *event.Instance
		for i, p := range parts {
			if !used[i] && p.SpecKey == b.key {
				part = p
				used[i] = true
				break
			}
		}
		if part == nil {
			continue // constituent absent (e.g. disjunction branch)
		}
		if b.recv != "" && part.OID != 0 {
			load := rc.DB.Load
			if updates.forUpdate(b.recv) {
				load = rc.DB.LoadForUpdate
			}
			obj, err := load(rc.Txn, oodb.OID(part.OID))
			if err != nil {
				return nil, fmt.Errorf("rules: rule %s: bind %s: %w", d.Name, b.recv, err)
			}
			ev.vars[b.recv] = obj
		}
		for i, p := range b.params {
			if i < len(part.Args) {
				ev.vars[p] = part.Args[i]
			}
		}
	}
	return ev, nil
}

// Modes resolves the declaration's effective coupling modes, applying
// the engine defaults: an unspecified action mode means detached, an
// unspecified condition mode follows the action.
func (d *RuleDecl) Modes() (cond, action eca.Coupling) {
	action = parseMode(d.ActionMode)
	if action == 0 {
		action = eca.Detached
	}
	cond = parseMode(d.CondMode)
	if cond == 0 {
		cond = action
	}
	return cond, action
}

func parseMode(s string) eca.Coupling {
	switch s {
	case "imm", "immediate":
		return eca.Immediate
	case "deferred":
		return eca.Deferred
	case "detached":
		return eca.Detached
	case "parallel":
		return eca.DetachedParallelCausal
	case "sequential":
		return eca.DetachedSequentialCausal
	case "exclusive":
		return eca.DetachedExclusiveCausal
	}
	return 0
}

func parsePolicy(s string) algebra.Policy {
	switch s {
	case "recent":
		return algebra.Recent
	case "continuous":
		return algebra.Continuous
	case "cumulative":
		return algebra.Cumulative
	default:
		return algebra.Chronicle
	}
}

func parseScope(s string) algebra.Scope {
	if s == "global" {
		return algebra.ScopeGlobal
	}
	return algebra.ScopeTransaction
}
