package analysis

import "repro/internal/eca"

// perRule runs check on every node, collecting the errors it reports
// under the analyzer's name.
func perRule(g *Graph, analyzer string, check func(n *Node, errf func(format string, args ...any))) []Finding {
	var out []Finding
	for _, n := range g.Nodes {
		check(n, func(format string, args ...any) {
			out = append(out, finding(n, analyzer, Error, format, args...))
		})
	}
	return out
}

// coupling admits each rule's coupling modes against Table 1 (§3.2)
// and the engine's own rule validation: the condition runs no later
// than the action, a detached condition needs a detached action, and
// the supervised-executor clauses apply only to detached rules —
// immediate and deferred rules run inside the triggering transaction,
// where the executor's deadline, retry and breaker do not apply.
func coupling(g *Graph) []Finding {
	return perRule(g, "coupling", func(n *Node, errf func(string, ...any)) {
		cond, action := n.Cond, n.Action
		if !eca.Supported(n.Category, cond) {
			errf("Table 1 rejects %v condition coupling on a %v event", cond, n.Category)
		}
		if !eca.Supported(n.Category, action) {
			errf("Table 1 rejects %v action coupling on a %v event", action, n.Category)
		}
		if cond.Order() > action.Order() {
			errf("condition mode %v is later than action mode %v", cond, action)
		}
		if cond.Detachedness() != action.Detachedness() && cond.Order() >= 2 {
			errf("detached condition %v with non-detached action %v", cond, action)
		}
		if action.Order() >= 2 {
			return
		}
		d := n.Decl
		for _, c := range []struct {
			name string
			set  bool
		}{
			{"timeout", d.Timeout != 0},
			{"retry", d.RetrySet},
			{"breaker", d.BreakerSet},
		} {
			if c.set {
				errf("%s clause applies only to detached-coupled rules (%v rules run inside the triggering transaction)", c.name, action)
			}
		}
	})
}

// composite checks the composite-event clauses: known policy and
// scope, composite clauses only on composite events, and a validity
// interval on every cross-transaction composite.
func composite(g *Graph) []Finding {
	return perRule(g, "composite", func(n *Node, errf func(string, ...any)) {
		d := n.Decl
		switch d.Policy {
		case "", "recent", "chronicle", "continuous", "cumulative":
		default:
			errf("unknown consumption policy %q (want recent, chronicle, continuous, or cumulative)", d.Policy)
		}
		switch d.Scope {
		case "", "transaction", "global":
		default:
			errf("unknown scope %q (want transaction or global)", d.Scope)
		}
		switch n.Category {
		case eca.SingleMethod, eca.PurelyTemporal:
			if d.Policy != "" || d.Scope != "" || d.Validity != 0 {
				errf("policy/scope/validity clauses apply only to composite events")
			}
		case eca.CompositeMultiTxn:
			if d.Validity == 0 {
				errf("cross-transaction composite event needs a validity clause (semi-composed occurrences would accumulate forever)")
			}
		}
	})
}

// vars checks that no variable is declared twice and that every
// variable the event, condition and action reference is declared.
func vars(g *Graph) []Finding {
	return perRule(g, "vars", func(n *Node, errf func(string, ...any)) {
		declared := make(map[string]bool, len(n.Decl.Decls))
		for _, vd := range n.Decl.Decls {
			if declared[vd.Name] {
				errf("variable %q declared twice", vd.Name)
			}
			declared[vd.Name] = true
		}
		for _, r := range n.refs {
			if !declared[r.name] {
				errf("undeclared variable %q referenced in %s", r.name, r.where)
			}
		}
	})
}

// names reports every rule whose name an earlier rule in the set
// already uses.
func names(g *Graph) []Finding {
	return perRule(g, "names", func(n *Node, errf func(string, ...any)) {
		if first := g.Node(n.Name()); first != n {
			errf("duplicate rule name (first defined at %s:%d)", first.File, first.Decl.Line)
		}
	})
}
