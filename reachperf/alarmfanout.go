package main

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/eca"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// alarmFanout is the rule- and contention-heavy durable workload: 256
// sensors and 16 hot counters, all resident in the buffer pool. Each
// client transaction reports one reading, which fires three rules:
//
//   - Aggregate (detached) adds the reading to its counter, a
//     read-modify-write that takes the S→X upgrade path, deadlock
//     victims and executor retries;
//   - Audit (sequential causal) inserts an audit row once the trigger
//     committed;
//   - Seen (deferred) counts the reading on the sensor at commit.
type alarmFanout struct {
	sensors  []*oodb.Object
	counters []*oodb.Object

	// Dead letters attributed to client operations.
	mu       sync.Mutex
	deadAggX [afCounters]int64
	deadAudN int64
	deadAudX int64
}

const (
	afSensors  = 256
	afCounters = 16
	afRing     = 1 << 13 // recent operations a dead letter is resolved against
)

const alarmRules = `
rule Aggregate {
    decl Sensor *s, Counter *c, int x;
    event after s->report(c, x);
    action detached set c.total = c.total + x;
};

rule Audit {
    decl Sensor *s, Counter *c, int x, AuditLog *log named "Audit";
    event after s->report(c, x);
    action sequential log->append(x);
};

rule Seen {
    decl Sensor *s, Counter *c, int x;
    event after s->report(c, x);
    action deferred set s.seen = s.seen + 1;
};
`

func (*alarmFanout) durable() bool { return true }

func (*alarmFanout) schema(b *bench, sys *core.System) error {
	sensor := oodb.NewClass("Sensor",
		oodb.Attr{Name: "id", Type: oodb.TInt},
		oodb.Attr{Name: "last", Type: oodb.TInt},
		oodb.Attr{Name: "seen", Type: oodb.TInt})
	sensor.Monitored = true
	sensor.Method("report", b.method(func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "last", args[1])
	}))
	counter := oodb.NewClass("Counter", oodb.Attr{Name: "total", Type: oodb.TInt})
	log := oodb.NewClass("AuditLog", oodb.Attr{Name: "name", Type: oodb.TString})
	log.Method("append", b.method(func(ctx *oodb.Ctx, _ *oodb.Object, args []any) (any, error) {
		row, err := ctx.New("Audit")
		if err != nil {
			return nil, err
		}
		if err := ctx.Set(row, "x", args[0]); err != nil {
			return nil, err
		}
		return nil, ctx.DB.Persist(ctx.Txn, row)
	}))
	audit := oodb.NewClass("Audit", oodb.Attr{Name: "x", Type: oodb.TInt})
	for _, c := range []*oodb.Class{sensor, counter, log, audit} {
		if err := sys.RegisterClass(c); err != nil {
			return err
		}
	}
	return nil
}

func (w *alarmFanout) setup(b *bench, sys *core.System, _ *rand.Rand) error {
	l, err := b.loadRules(sys, alarmRules)
	if err != nil {
		return err
	}
	// Seen runs at the client's commit with the reading's event: note
	// the event's sequence number so a dead-lettered Aggregate or Audit
	// firing of the same event can be traced to its operation.
	for _, r := range l.Rules {
		if r.Name != "Seen" {
			continue
		}
		inner := r.Action
		r.Action = func(rc *eca.RuleCtx) error {
			if c := clientOf(rc.Txn); c != nil {
				c.stream.(*alarmStream).seq = rc.Trigger.Seq
			}
			return inner(rc)
		}
	}
	w.mu.Lock()
	w.deadAggX, w.deadAudN, w.deadAudX = [afCounters]int64{}, 0, 0
	w.mu.Unlock()

	t := sys.Begin()
	w.sensors, w.counters = make([]*oodb.Object, afSensors), make([]*oodb.Object, afCounters)
	for i := range w.sensors {
		s, err := sys.DB.NewObject(t, "Sensor")
		if err != nil {
			return err
		}
		if err := setAll(sys, t, s, "id", int64(i)); err != nil {
			return err
		}
		if err := sys.DB.SetRoot(t, fmt.Sprintf("S%03d", i), s); err != nil {
			return err
		}
		w.sensors[i] = s
	}
	for i := range w.counters {
		c, err := sys.DB.NewObject(t, "Counter")
		if err != nil {
			return err
		}
		if err := sys.DB.SetRoot(t, fmt.Sprintf("C%02d", i), c); err != nil {
			return err
		}
		w.counters[i] = c
	}
	log, err := sys.DB.NewObject(t, "AuditLog")
	if err != nil {
		return err
	}
	if err := sys.DB.SetRoot(t, "Audit", log); err != nil {
		return err
	}
	return t.Commit()
}

type alarmOp struct {
	sensor  uint16
	counter uint8
	x       int64
}

// alarmRec is one executed operation, kept so dead letters can be
// attributed to it.
type alarmRec struct {
	seq       uint64
	op        alarmOp
	committed bool
}

type alarmStream struct {
	w   *alarmFanout
	ops []alarmOp
	i   int
	cur *alarmOp

	raised bool   // the reading's event was raised
	seq    uint64 // its sequence number, noted by the Seen rule

	// Acknowledged and raised effects.
	raisedX    [afCounters]int64
	committedN int64
	committedX int64
	seen       [afSensors]int64

	mu   sync.Mutex
	ring [afRing]alarmRec
	n    uint64
}

func (w *alarmFanout) stream(_ int, rng *rand.Rand) stream {
	s := &alarmStream{w: w, ops: make([]alarmOp, streamLen)}
	for i := range s.ops {
		s.ops[i] = alarmOp{sensor: uint16(rng.Intn(afSensors)), counter: uint8(rng.Intn(afCounters)), x: int64(1 + rng.Intn(100))}
	}
	return s
}

func (s *alarmStream) encode(buf []byte) []byte {
	for _, op := range s.ops {
		buf = u64(buf, uint64(op.sensor)<<40|uint64(op.counter)<<32|uint64(op.x))
	}
	return buf
}

func (s *alarmStream) next() {
	s.cur = &s.ops[s.i]
	s.i = (s.i + 1) % len(s.ops)
}

func (s *alarmStream) run(c *client, t *txn.Txn) error {
	s.raised, s.seq = false, 0
	_, err := c.invoke(t, s.w.sensors[s.cur.sensor], "report", s.w.counters[s.cur.counter], s.cur.x)
	s.raised = err == nil
	return err
}

func (s *alarmStream) finish(committed bool) {
	op := *s.cur
	if s.raised {
		s.raisedX[op.counter] += op.x // Aggregate is plain detached: it runs whatever the trigger's outcome
	}
	if committed {
		s.committedN++
		s.committedX += op.x
		s.seen[op.sensor]++
	}
	s.mu.Lock()
	s.ring[s.n%afRing] = alarmRec{seq: s.seq, op: op, committed: committed}
	s.n++
	s.mu.Unlock()
}

func (s *alarmStream) lookup(seq uint64) (alarmRec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.ring {
		if r := s.ring[i]; r.seq == seq && seq != 0 {
			return r, true
		}
	}
	return alarmRec{}, false
}

func (s *alarmStream) userBytes() int64 { return 8 }

// deadLetter attributes a dead-lettered Aggregate or Audit firing to
// the operation that raised its event.
func (w *alarmFanout) deadLetter(b *bench, dl eca.DeadLetter) bool {
	if dl.Rule != "Aggregate" && dl.Rule != "Audit" {
		return true
	}
	for _, c := range b.clients {
		r, ok := c.stream.(*alarmStream).lookup(dl.Seq)
		if !ok {
			continue
		}
		w.mu.Lock()
		if dl.Rule == "Aggregate" {
			w.deadAggX[r.op.counter] += r.op.x
		} else if r.committed {
			w.deadAudN++
			w.deadAudX += r.op.x
		}
		w.mu.Unlock()
		return true
	}
	return false
}

func (*alarmFanout) checkLive(*bench, *core.System) error { return nil }

// check compares the reopened store with the acknowledged readings:
// each counter holds the readings raised to it minus the dead-lettered
// Aggregate firings, the audit rows are the committed readings minus
// the dead-lettered audits, and every sensor saw its committed
// readings.
func (w *alarmFanout) check(b *bench, sys *core.System) error {
	var raised [afCounters]int64
	var seen [afSensors]int64
	var n, x int64
	for _, c := range b.clients {
		s := c.stream.(*alarmStream)
		for i, v := range s.raisedX {
			raised[i] += v
		}
		for i, v := range s.seen {
			seen[i] += v
		}
		n += s.committedN
		x += s.committedX
	}
	w.mu.Lock()
	deadAgg, deadN, deadX := w.deadAggX, w.deadAudN, w.deadAudX
	w.mu.Unlock()

	t := sys.Begin()
	defer t.Commit()
	for i := 0; i < afCounters; i++ {
		c, err := sys.DB.Root(t, fmt.Sprintf("C%02d", i))
		if err != nil {
			return err
		}
		total, err := getInt(sys, t, c, "total")
		if err != nil {
			return err
		}
		if want := raised[i] - deadAgg[i]; total != want {
			return fmt.Errorf("%w: counter %d total %d, want %d", errCheck, i, total, want)
		}
	}
	var rows, sum int64
	var bad error
	sys.DB.Extent("Audit", func(oid oodb.OID) {
		if bad != nil {
			return
		}
		row, err := sys.DB.Load(t, oid)
		if err != nil {
			bad = err
			return
		}
		v, err := getInt(sys, t, row, "x")
		if err != nil {
			bad = err
			return
		}
		rows++
		sum += v
	})
	if bad != nil {
		return bad
	}
	if rows != n-deadN || sum != x-deadX {
		return fmt.Errorf("%w: %d audit rows summing to %d, want %d summing to %d", errCheck, rows, sum, n-deadN, x-deadX)
	}
	for i := 0; i < afSensors; i++ {
		s, err := sys.DB.Root(t, fmt.Sprintf("S%03d", i))
		if err != nil {
			return err
		}
		got, err := getInt(sys, t, s, "seen")
		if err != nil {
			return err
		}
		if got != seen[i] {
			return fmt.Errorf("%w: sensor %d saw %d readings, want %d", errCheck, i, got, seen[i])
		}
	}
	b.liveBytes = (afSensors*3 + afCounters + rows) * 8
	return nil
}

// plant loses one acknowledged reading from counter 0.
func (*alarmFanout) plant(_ *bench, sys *core.System) error {
	t := sys.Begin()
	c, err := sys.DB.Root(t, "C00")
	if err != nil {
		return err
	}
	if err := addInt(&oodb.Ctx{DB: sys.DB, Txn: t}, c, "total", -1); err != nil {
		return err
	}
	return t.Commit()
}
