// Package analysis is the one checker for parsed REACH rule
// declarations. Every check is an analyzer over the same triggering
// graph, built in one walk per rule, and reports the same Finding.
//
// Four analyzers check each rule on its own (or, for names, against
// the whole set); their findings are errors:
//
//   - coupling: the Table 1 admission of the rule's condition and
//     action modes against its event category (§3.2), the condition
//     running no later than the action, detached parity, and
//     timeout/retry/breaker clauses only on detached rules.
//   - composite: known consumption policies and scopes, a validity
//     interval on every cross-transaction composite, and composite
//     clauses only on composite events.
//   - vars: no variable declared twice, and every variable the event,
//     condition or action references declared.
//   - names: rule names unique across the whole set.
//
// Three analyzers look at how rules interact. Each rule's condition
// and action raise events (method calls → before/after method events,
// set statements → state events, abort → the transaction abort
// event); those connect to the rules the events can fire — through
// the composite operators seq/and/or/times/closure, with not()
// terminals tracked but marked non-triggering:
//
//   - termination: cycles in the graph. A cycle whose rules all run
//     inside the triggering transaction (immediate/deferred coupling)
//     recurses unboundedly and is an error; a detached cycle is an
//     unbounded cascade of top-level transactions — an error unless it
//     crosses a timeout or breaker clause, which demotes it to a
//     warning. For acyclic rule sets the analysis also computes the
//     static cascade-depth bound (the longest rule chain) that the
//     engine enforces at run time.
//   - confluence: rule pairs at equal priority in the same coupling
//     phase whose firing order is observable — both write the same
//     Class.attr, or their trigger sets overlap and one writes an
//     attribute the other reads.
//   - reachability: rules whose triggering event can never complete —
//     every terminal sits under not(), or (against a closed world) a
//     constituent is neither a registered method/attribute nor raised
//     by any reachable rule's action.
//
// Findings can be suppressed per rule with a reviewed comment in the
// .rules source — `# lint:allow <analyzer> <justification>` (or the
// `//` comment form) on the rule's header line or any line above it
// back to the previous rule; a suppression without a justification is
// itself an error, and a suppression that allows nothing is reported
// as stale.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/rules"
)

// Severity ranks findings: errors gate strict registration and fail
// rulec -analyze; warnings are advisory.
type Severity int

// Finding severities.
const (
	Warning Severity = iota + 1
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Finding is one analysis diagnostic, anchored at the rule whose
// declaration it concerns.
type Finding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Rule     string   `json:"rule,omitempty"`
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	Msg      string   `json:"message"`
}

// String formats the finding as file:line: rule R: [analyzer] severity:
// message, matching the lint diagnostic style.
func (f Finding) String() string {
	who := ""
	if f.Rule != "" {
		who = fmt.Sprintf("rule %s: ", f.Rule)
	}
	return fmt.Sprintf("%s:%d: %s[%s] %s: %s", f.File, f.Line, who, f.Analyzer, f.Severity, f.Msg)
}

// Terminal is one primitive leaf of a rule's event expression.
type Terminal struct {
	// Key is the canonical event spec key (the same keys the engine's
	// ECA managers register under).
	Key string
	// Triggering is false for terminals under not(): their occurrences
	// participate in (by inhibiting) detection but can never initiate
	// the rule, so they contribute no triggering edges.
	Triggering bool
}

// Raised is one event a rule's condition or action can raise.
type Raised struct {
	Key string
	Via string // "action" or "condition"
}

// Node is one rule in the triggering graph.
type Node struct {
	Decl *rules.RuleDecl
	File string
	// Cond and Action are the effective coupling modes.
	Cond, Action eca.Coupling
	// Category is the Table 1 column of the triggering event.
	Category eca.Category
	// Terminals are the primitive leaves of the triggering event.
	Terminals []Terminal
	// Raises are the events the rule's condition and action can raise.
	Raises []Raised
	// Reads and Writes are the Class.attr sets the rule's expressions
	// touch, for the confluence analysis.
	Reads, Writes []string
	// InCycle marks membership in a termination cycle.
	InCycle bool
	// Unreachable marks rules whose event can never complete.
	Unreachable bool

	// refs are the variables the event, condition and action
	// reference, each once, in first-use order.
	refs []varRef
	// unbound marks an event leaf whose receiver is undeclared: the
	// leaf has no key, so the vars finding stands for the rule.
	unbound bool
}

// varRef is one variable reference and the rule part it occurs in.
type varRef struct{ name, where string }

// Name returns the rule name.
func (n *Node) Name() string { return n.Decl.Name }

// triggerKeys returns the keys of the node's triggering terminals.
func (n *Node) triggerKeys() []string {
	var out []string
	for _, t := range n.Terminals {
		if t.Triggering {
			out = append(out, t.Key)
		}
	}
	return out
}

// Edge connects a raising rule to a rule its raised event can fire.
type Edge struct {
	From, To string
	// Key is the event that carries the edge.
	Key string
	// Via says whether the event is raised by From's action or by a
	// method call in its condition.
	Via string
}

// Graph is the whole-ruleset triggering graph.
type Graph struct {
	// Nodes in input order (file order, then declaration order); a
	// duplicate rule name keeps every declaration.
	Nodes []*Node
	// Edges sorted by (From, To, Key, Via).
	Edges []Edge

	index map[string]int // rule name -> first Nodes index
	succ  map[int][]int  // deduplicated adjacency, sorted
}

// Node returns the graph node for a rule name (its first definition),
// or nil.
func (g *Graph) Node(name string) *Node {
	if i, ok := g.index[name]; ok {
		return g.Nodes[i]
	}
	return nil
}

// Cycle is one termination cycle: a closed rule path A → B → … → A
// (Rules holds each rule once; the path re-enters the first).
type Cycle struct {
	Rules []string `json:"rules"`
	// Detached is true when any rule in the cycle runs detached — the
	// cascade spans top-level transactions instead of recursing inside
	// one.
	Detached bool `json:"detached"`
	// Guarded is true when a detached cycle crosses a rule with a
	// timeout or breaker clause, which bounds the cascade at run time.
	Guarded  bool     `json:"guarded"`
	Severity Severity `json:"severity"`
}

// String renders the cycle path.
func (c Cycle) String() string {
	return strings.Join(append(append([]string{}, c.Rules...), c.Rules[0]), " -> ")
}

// World describes the classes the analysis may assume exist. A nil
// World is the open world: any method invocation or attribute update
// could arrive from application code, so only rules whose event is
// structurally un-completable (e.g. entirely negated) are unreachable.
// A closed World — built from a live data dictionary — additionally
// rejects rules waiting on methods or attributes that do not exist.
type World struct {
	// Methods holds "Class.method" for every registered method.
	Methods map[string]bool
	// Attrs holds "Class.attr" for every declared attribute.
	Attrs map[string]bool
}

// Result is the outcome of analyzing a rule set.
type Result struct {
	Graph *Graph
	// Findings that survived suppression, sorted by (file, line, rule).
	Findings []Finding
	// Suppressed counts findings silenced by justified lint:allow
	// comments.
	Suppressed int
	// Cycles found by the termination analysis.
	Cycles []Cycle
	// DepthBound is the static cascade-depth bound — the longest rule
	// chain a single external event can fire — valid (non-zero) only
	// when the graph is acyclic.
	DepthBound int
}

// HasErrors reports whether any surviving finding is an error.
func (r *Result) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return true
		}
	}
	return false
}

// Analyzer accumulates rule files and analyzes them as one set —
// cross-file edges are the analysis's reason to exist.
type Analyzer struct {
	files []fileSet
}

type fileSet struct {
	name  string
	decls []*rules.RuleDecl
	sups  []*suppression
}

// New returns an empty Analyzer.
func New() *Analyzer { return &Analyzer{} }

// Add records one parsed rule file. src is the raw source, scanned for
// lint:allow suppression comments; it may be empty when the source is
// unavailable (no suppressions then).
func (a *Analyzer) Add(name, src string, decls []*rules.RuleDecl) {
	a.files = append(a.files, fileSet{name: name, decls: decls, sups: parseSuppressions(src)})
}

// Analyze is the single-file convenience wrapper.
func Analyze(name, src string, decls []*rules.RuleDecl, w *World) *Result {
	a := New()
	a.Add(name, src, decls)
	return a.Run(w)
}

// Run builds the triggering graph over every added file and runs every
// analyzer against w.
func (a *Analyzer) Run(w *World) *Result {
	g := a.buildGraph()
	res := &Result{Graph: g}
	var raw []Finding
	for _, check := range []func(*Graph) []Finding{coupling, composite, vars, names} {
		raw = append(raw, check(g)...)
	}
	raw = append(raw, a.termination(g, res)...)
	raw = append(raw, a.confluence(g)...)
	raw = append(raw, a.reachability(g, w)...)
	res.Findings, res.Suppressed = a.applySuppressions(raw)
	sortFindings(res.Findings)
	return res
}

// buildGraph derives terminals, raised events, and read/write sets for
// every rule and connects raisers to the rules their events can fire.
func (a *Analyzer) buildGraph() *Graph {
	g := &Graph{index: make(map[string]int), succ: make(map[int][]int)}
	for _, fs := range a.files {
		for _, d := range fs.decls {
			n := newNode(fs.name, d)
			if _, dup := g.index[n.Name()]; !dup {
				g.index[n.Name()] = len(g.Nodes)
			}
			g.Nodes = append(g.Nodes, n)
		}
	}
	// Index triggering terminals by key, preserving node order.
	byKey := make(map[string][]int)
	for i, n := range g.Nodes {
		seen := map[string]bool{}
		for _, t := range n.Terminals {
			if !t.Triggering || seen[t.Key] {
				continue
			}
			seen[t.Key] = true
			byKey[t.Key] = append(byKey[t.Key], i)
		}
	}
	for i, n := range g.Nodes {
		edges := map[[2]int]bool{} // dedup (to, raise-index collapse)
		for _, r := range n.Raises {
			for _, j := range byKey[r.Key] {
				g.Edges = append(g.Edges, Edge{From: n.Name(), To: g.Nodes[j].Name(), Key: r.Key, Via: r.Via})
				if !edges[[2]int{i, j}] {
					edges[[2]int{i, j}] = true
					g.succ[i] = append(g.succ[i], j)
				}
			}
		}
		sort.Ints(g.succ[i])
	}
	sort.SliceStable(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Via < b.Via
	})
	return g
}

// newNode derives one rule's graph node from its declaration in one
// walk over the event, condition and action.
func newNode(file string, d *rules.RuleDecl) *Node {
	cond, action := d.Modes()
	n := &Node{Decl: d, File: file, Cond: cond, Action: action,
		Category: eca.CategoryOfKey(eventKind(d.Event), d.Scope == "global")}
	w := &ruleWalk{n: n, classOf: d.ClassOf()}
	w.event(d.Event, true)
	if d.Cond != nil {
		w.expr(d.Cond, "condition")
	}
	for _, s := range d.Actions {
		switch st := s.(type) {
		case rules.CallStmt:
			w.call(st.Call, "action")
		case rules.SetStmt:
			w.ref(st.Target.Var, "action")
			if cls, ok := w.classOf[st.Target.Var]; ok && !scalar(cls) {
				w.raise(event.StateSpec{Class: cls, Attr: st.Target.Attr}.Key(), "action")
				w.writes = addTo(w.writes, cls+"."+st.Target.Attr)
			}
			w.expr(st.Value, "action")
		case rules.AbortStmt:
			// Aborting the rule transaction surfaces as the trigger's
			// abort; conservatively, rules on txn:abort may fire.
			w.raise(event.TxnSpec{Phase: event.Abort}.Key(), "action")
		}
	}
	n.Reads = sortedSet(w.reads)
	n.Writes = sortedSet(w.writes)
	return n
}

// eventKind is the event kind of a rule's triggering event: any
// algebra expression defines a composite.
func eventKind(e rules.EventExpr) event.Kind {
	switch e.(type) {
	case rules.MethodEvent:
		return event.KindMethod
	case rules.StateEvent:
		return event.KindState
	case rules.TxnEvent:
		return event.KindTxn
	case rules.TimeEvent:
		return event.KindTemporal
	}
	return event.KindComposite
}

// leafKey returns the canonical event spec key of a primitive event
// (the key the engine's ECA managers register under). It reports false
// for an undeclared method receiver.
func leafKey(e rules.EventExpr, classOf map[string]string, ruleName string) (string, bool) {
	switch ev := e.(type) {
	case rules.MethodEvent:
		cls, ok := classOf[ev.Recv]
		if !ok {
			return "", false
		}
		when := event.Before
		if ev.After {
			when = event.After
		}
		return event.MethodSpec{Class: cls, Method: ev.Method, When: when}.Key(), true
	case rules.StateEvent:
		return event.StateSpec{Class: ev.Class, Attr: ev.Attr}.Key(), true
	case rules.TxnEvent:
		return event.TxnSpec{Phase: txnPhase(ev.Phase)}.Key(), true
	case rules.TimeEvent:
		var spec event.TemporalSpec
		switch ev.Kind {
		case "at":
			spec = event.TemporalSpec{Name: ruleName, Temporal: event.Absolute, At: ev.At}
		case "every":
			spec = event.TemporalSpec{Name: ruleName, Temporal: event.Periodic, Period: ev.Period}
		default:
			spec = event.TemporalSpec{Name: ruleName, Temporal: event.Relative, Delay: ev.Period}
		}
		return spec.Key(), true
	}
	return "", false
}

// subEvents returns the operands of a composite event expression, or
// nil for a primitive one.
func subEvents(e rules.EventExpr) []rules.EventExpr {
	switch ev := e.(type) {
	case rules.SeqEvent:
		return ev.Sub
	case rules.AndEvent:
		return ev.Sub
	case rules.OrEvent:
		return ev.Sub
	case rules.NotEvent:
		return []rules.EventExpr{ev.Sub}
	case rules.TimesEvent:
		return []rules.EventExpr{ev.Sub}
	case rules.CloseEvent:
		return []rules.EventExpr{ev.Sub}
	}
	return nil
}

func txnPhase(s string) event.TxnPhase {
	switch s {
	case "bot":
		return event.BOT
	case "eot":
		return event.EOT
	case "commit":
		return event.Commit
	default:
		return event.Abort
	}
}

// scalar reports whether a declared "class" is a scalar type binding.
func scalar(cls string) bool {
	switch cls {
	case "int", "float", "string", "bool":
		return true
	}
	return false
}

// ruleWalk accumulates a node's terminals, raised events, attribute
// read/write sets and variable references while walking its rule.
type ruleWalk struct {
	n             *Node
	classOf       map[string]string
	reads, writes map[string]bool
}

// event flattens an event expression into the node's terminals.
// triggering is cleared under not(): non-occurrence terminals cannot
// initiate the rule.
func (w *ruleWalk) event(e rules.EventExpr, triggering bool) {
	if subs := subEvents(e); subs != nil {
		if _, neg := e.(rules.NotEvent); neg {
			triggering = false
		}
		for _, s := range subs {
			w.event(s, triggering)
		}
		return
	}
	if m, ok := e.(rules.MethodEvent); ok {
		w.ref(m.Recv, "event")
		for _, p := range m.Params {
			w.ref(p, "event")
		}
	}
	key, ok := leafKey(e, w.classOf, w.n.Name())
	if !ok {
		w.n.unbound = true
		return
	}
	w.n.Terminals = append(w.n.Terminals, Terminal{Key: key, Triggering: triggering})
}

// ref records a variable reference at its first use.
func (w *ruleWalk) ref(name, where string) {
	if name == "" {
		return
	}
	for _, r := range w.n.refs {
		if r.name == name {
			return
		}
	}
	w.n.refs = append(w.n.refs, varRef{name: name, where: where})
}

func (w *ruleWalk) raise(key, via string) {
	for _, r := range w.n.Raises {
		if r.Key == key && r.Via == via {
			return
		}
	}
	w.n.Raises = append(w.n.Raises, Raised{Key: key, Via: via})
}

// call records the before/after method events of one invocation and
// walks its arguments.
func (w *ruleWalk) call(c rules.CallExpr, via string) {
	w.ref(c.Recv, via)
	if cls, ok := w.classOf[c.Recv]; ok && !scalar(cls) {
		w.raise(event.MethodSpec{Class: cls, Method: c.Method, When: event.Before}.Key(), via)
		w.raise(event.MethodSpec{Class: cls, Method: c.Method, When: event.After}.Key(), via)
	}
	for _, a := range c.Args {
		w.expr(a, via)
	}
}

func (w *ruleWalk) expr(e rules.Expr, via string) {
	switch x := e.(type) {
	case rules.VarRef:
		w.ref(x.Name, via)
	case rules.AttrRef:
		w.ref(x.Var, via)
		if cls, ok := w.classOf[x.Var]; ok && !scalar(cls) {
			w.reads = addTo(w.reads, cls+"."+x.Attr)
		}
	case rules.CallExpr:
		w.call(x, via)
	case rules.BinOp:
		w.expr(x.L, via)
		w.expr(x.R, via)
	case rules.UnOp:
		w.expr(x.X, via)
	}
}

// addTo adds key to a lazily allocated set.
func addTo(set map[string]bool, key string) map[string]bool {
	if set == nil {
		set = make(map[string]bool)
	}
	set[key] = true
	return set
}

func sortedSet(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})
}

// finding constructs a Finding anchored at a node.
func finding(n *Node, analyzer string, sev Severity, format string, args ...any) Finding {
	return Finding{
		File:     n.File,
		Line:     n.Decl.Line,
		Rule:     n.Name(),
		Analyzer: analyzer,
		Severity: sev,
		Msg:      fmt.Sprintf(format, args...),
	}
}
