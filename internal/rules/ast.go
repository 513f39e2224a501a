package rules

import (
	"fmt"
	"strings"
	"time"
)

// RuleDecl is the parsed form of one rule definition.
type RuleDecl struct {
	Name       string
	Line       int // source line of the rule keyword
	Prio       int
	Decls      []VarDecl
	Event      EventExpr
	CondMode   string // "", imm, deferred, detached, parallel, sequential, exclusive
	Cond       Expr   // nil means always true
	ActionMode string
	Actions    []Stmt

	// Composite-event attributes.
	Policy   string        // recent | chronicle | continuous | cumulative
	Scope    string        // transaction | global
	Validity time.Duration // required for global scope

	// Supervised-executor attributes (detached-coupled rules only).
	Timeout    time.Duration // per-attempt deadline; 0 = engine default
	Retry      int           // retry budget; meaningful when RetrySet
	RetrySet   bool
	Breaker    int // circuit-breaker threshold; meaningful when BreakerSet
	BreakerSet bool
}

// ClassOf maps each declared variable to its class (or scalar type)
// name.
func (d *RuleDecl) ClassOf() map[string]string {
	out := make(map[string]string, len(d.Decls))
	for _, v := range d.Decls {
		out[v.Name] = v.Class
	}
	return out
}

// VarDecl binds a name in the rule's scope. Object declarations carry
// a class and optionally a root name ("named"); scalar declarations
// (int, float, string, bool) and object declarations without a root
// name bind event parameters positionally.
type VarDecl struct {
	Class string // class name, or int/float/string/bool
	Ptr   bool
	Name  string
	Named string // root name to fetch, "" if bound from the event
}

// IsScalar reports whether the declaration is of a scalar type
// rather than an object class.
func (d VarDecl) IsScalar() bool {
	switch d.Class {
	case "int", "float", "string", "bool":
		return true
	}
	return false
}

// EventExpr is a parsed event specification.
type EventExpr interface{ isEvent() }

// MethodEvent matches before/after an invocation: after recv->m(p...).
type MethodEvent struct {
	After  bool
	Recv   string // declared object variable; its class scopes the event
	Method string
	Params []string // declared variables bound to the arguments
}

// StateEvent matches attribute updates: update of Class.attr.
type StateEvent struct {
	Class string
	Attr  string
}

// TxnEvent matches flow-control events: bot | eot | commit | abort.
type TxnEvent struct{ Phase string }

// TimeEvent matches temporal events: at "RFC3339" | every D | in D.
type TimeEvent struct {
	Kind   string // at | every | in
	At     time.Time
	Period time.Duration
}

// SeqEvent is seq(e1, e2, ...).
type SeqEvent struct{ Sub []EventExpr }

// AndEvent is and(e1, e2, ...).
type AndEvent struct{ Sub []EventExpr }

// OrEvent is or(e1, e2, ...).
type OrEvent struct{ Sub []EventExpr }

// NotEvent is not(e).
type NotEvent struct{ Sub EventExpr }

// TimesEvent is times(n, e).
type TimesEvent struct {
	N   int
	Sub EventExpr
}

// CloseEvent is closure(e).
type CloseEvent struct{ Sub EventExpr }

func (MethodEvent) isEvent() {}
func (StateEvent) isEvent()  {}
func (TxnEvent) isEvent()    {}
func (TimeEvent) isEvent()   {}
func (SeqEvent) isEvent()    {}
func (AndEvent) isEvent()    {}
func (OrEvent) isEvent()     {}
func (NotEvent) isEvent()    {}
func (TimesEvent) isEvent()  {}
func (CloseEvent) isEvent()  {}

// Expr is a parsed condition (or argument) expression.
type Expr interface{ isExpr() }

// Lit is a literal value (int64, float64, string, bool).
type Lit struct{ Val any }

// VarRef reads a declared variable.
type VarRef struct{ Name string }

// AttrRef reads obj.attr on a declared object variable.
type AttrRef struct {
	Var  string
	Attr string
}

// CallExpr invokes a method: var->method(args...).
type CallExpr struct {
	Recv   string
	Method string
	Args   []Expr
}

// BinOp is a binary operation: and or < <= > >= == != + - * / %.
type BinOp struct {
	Op   string
	L, R Expr
}

// UnOp is a unary operation: not, -.
type UnOp struct {
	Op string
	X  Expr
}

func (Lit) isExpr()      {}
func (VarRef) isExpr()   {}
func (AttrRef) isExpr()  {}
func (CallExpr) isExpr() {}
func (BinOp) isExpr()    {}
func (UnOp) isExpr()     {}

// Stmt is an action statement.
type Stmt interface{ isStmt() }

// CallStmt invokes a method for effect.
type CallStmt struct{ Call CallExpr }

// SetStmt assigns an attribute: set var.attr = expr.
type SetStmt struct {
	Target AttrRef
	Value  Expr
}

// AbortStmt aborts the rule's transaction with a message.
type AbortStmt struct{ Message string }

func (CallStmt) isStmt()  {}
func (SetStmt) isStmt()   {}
func (AbortStmt) isStmt() {}

// String implements fmt.Stringer.
func (e MethodEvent) String() string {
	when := "before"
	if e.After {
		when = "after"
	}
	return fmt.Sprintf("%s %s->%s(%s)", when, e.Recv, e.Method, strings.Join(e.Params, ", "))
}

// String implements fmt.Stringer.
func (e StateEvent) String() string { return fmt.Sprintf("update of %s.%s", e.Class, e.Attr) }

// String implements fmt.Stringer.
func (e TxnEvent) String() string { return e.Phase }

// String implements fmt.Stringer.
func (e TimeEvent) String() string {
	switch e.Kind {
	case "at":
		return "at " + e.At.Format(time.RFC3339)
	case "every":
		return "every " + e.Period.String()
	default:
		return "in " + e.Period.String()
	}
}

// String implements fmt.Stringer.
func (e SeqEvent) String() string { return "seq(" + joinEvents(e.Sub) + ")" }

// String implements fmt.Stringer.
func (e AndEvent) String() string { return "and(" + joinEvents(e.Sub) + ")" }

// String implements fmt.Stringer.
func (e OrEvent) String() string { return "or(" + joinEvents(e.Sub) + ")" }

// String implements fmt.Stringer.
func (e NotEvent) String() string { return "not(" + fmt.Sprint(e.Sub) + ")" }

// String implements fmt.Stringer.
func (e TimesEvent) String() string { return fmt.Sprintf("times(%d, %v)", e.N, e.Sub) }

// String implements fmt.Stringer.
func (e CloseEvent) String() string { return fmt.Sprintf("closure(%v)", e.Sub) }

func joinEvents(evs []EventExpr) string {
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = fmt.Sprint(e)
	}
	return strings.Join(parts, ", ")
}
