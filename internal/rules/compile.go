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

// Load parses src and registers its rules (see Register).
func Load(e *eca.Engine, src string) (*Loaded, error) {
	decls, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Register(e, decls)
}

// Register compiles every parsed rule, defines the composites the
// rules need, arms their temporal event sources, and registers the
// rules with the engine.
func Register(e *eca.Engine, decls []*RuleDecl) (*Loaded, error) {
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
// The rule is not registered; Register does that.
func Compile(e *eca.Engine, d *RuleDecl) (*eca.Rule, []*algebra.Composite, []event.TemporalSpec, error) {
	index := make(map[string]int, len(d.Decls))
	for i, v := range d.Decls {
		if _, dup := index[v.Name]; dup {
			return nil, nil, nil, fmt.Errorf("rules: rule %s: variable %q declared twice", d.Name, v.Name)
		}
		index[v.Name] = i
	}

	c := &compiler{decl: d, index: index}
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
			v, err := bindEnv(rc, decl, bindings, updates).eval(cond)
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
		ev := bindEnv(rc, decl, bindings, updates)
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

// binding maps a primitive spec key to the variables it populates,
// each given by its position in the rule's declarations.
type binding struct {
	key    string
	recv   int   // object variable bound to the event's receiver
	params []int // variables bound positionally to the arguments
}

type compiler struct {
	decl      *RuleDecl
	index     map[string]int // variable name → declaration position
	bindings  []binding
	temporal  []event.TemporalSpec
	composite bool
}

// compileEvent lowers an event AST into an algebra expression over
// primitive spec keys, recording variable bindings and temporal specs.
func (c *compiler) compileEvent(ev EventExpr) (algebra.Expr, error) {
	switch x := ev.(type) {
	case MethodEvent:
		recv, ok := c.index[x.Recv]
		if !ok {
			return nil, fmt.Errorf("rules: rule %s: receiver %q not declared", c.decl.Name, x.Recv)
		}
		when := event.Before
		if x.After {
			when = event.After
		}
		key := event.MethodSpec{Class: c.decl.Decls[recv].Class, Method: x.Method, When: when}.Key()
		params := make([]int, len(x.Params))
		for i, p := range x.Params {
			if params[i], ok = c.index[p]; !ok {
				return nil, fmt.Errorf("rules: rule %s: event parameter %q not declared", c.decl.Name, p)
			}
		}
		c.bindings = append(c.bindings, binding{key: key, recv: recv, params: params})
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
// rule transaction now holds X. Variables the action never referenced
// are still unresolved, so only what it touched is examined.
func (w writeSet) learn(t *txn.Txn, vars []slot) {
	var held map[uint64]txn.LockMode
	for _, s := range vars {
		obj, ok := s.val.(*oodb.Object)
		x := w[s.name]
		if !ok || x == nil || x.Load() {
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

// bindEnv builds the evaluation environment for one firing, matching
// composite constituents to bindings by spec key, in order. Scalar
// event parameters are bound from the trigger instance at once. An
// object variable — a named root, the event's receiver, or an
// object-valued parameter — only records where its object comes from;
// the condition or action loads it when it first dereferences it
// (env.lookup). A firing therefore locks only what it reads, in the
// order it reads it: a condition that turns out false before reaching
// an object never locks it.
func bindEnv(rc *eca.RuleCtx, d *RuleDecl, bindings []binding, updates writeSet) *env {
	ev := &env{ctx: rc.Ctx(), rule: d.Name, updates: updates, vars: make([]slot, len(d.Decls))}
	for i, v := range d.Decls {
		ev.vars[i] = slot{name: v.Name, root: v.Named}
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
		if part.OID != 0 {
			ev.vars[b.recv].from(oodb.OID(part.OID))
		}
		for i, p := range b.params {
			if i >= len(part.Args) {
				continue
			}
			s := &ev.vars[p]
			if obj, ok := part.Args[i].(*oodb.Object); ok && !d.Decls[p].IsScalar() {
				s.from(obj.OID())
			} else {
				s.val, s.bound = part.Args[i], true
			}
		}
	}
	return ev
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
