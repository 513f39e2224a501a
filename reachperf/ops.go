package main

import (
	"repro/internal/oodb"
	"repro/internal/query"
	"repro/internal/txn"
)

// The client's calls into oodb and query. In the traced window each is
// a span of its module's layer.

func (c *client) span(l layer) func() {
	if !c.b.tracing.Load() {
		return func() {}
	}
	c.rec.push(l)
	return c.rec.pop
}

func (c *client) invoke(t *txn.Txn, obj *oodb.Object, method string, args ...any) (any, error) {
	defer c.span(lOODB)()
	return c.b.sys.DB.Invoke(t, obj, method, args...)
}

func (c *client) load(t *txn.Txn, oid oodb.OID) (*oodb.Object, error) {
	defer c.span(lOODB)()
	return c.b.sys.DB.Load(t, oid)
}

func (c *client) get(t *txn.Txn, obj *oodb.Object, attr string) (any, error) {
	defer c.span(lOODB)()
	return c.b.sys.DB.Get(t, obj, attr)
}

func (c *client) set(t *txn.Txn, obj *oodb.Object, attr string, v any) error {
	defer c.span(lOODB)()
	return c.b.sys.DB.Set(t, obj, attr, v)
}

func (c *client) newObject(t *txn.Txn, class string) (*oodb.Object, error) {
	defer c.span(lOODB)()
	return c.b.sys.DB.NewObject(t, class)
}

func (c *client) persist(t *txn.Txn, obj *oodb.Object) error {
	defer c.span(lOODB)()
	return c.b.sys.DB.Persist(t, obj)
}

func (c *client) selectEq(t *txn.Txn, class, attr string, v any) ([]*oodb.Object, error) {
	defer c.span(lSelect)()
	return c.b.sys.Query.Select(t, class, query.Pred{Attr: attr, Op: query.Eq, Value: v})
}
