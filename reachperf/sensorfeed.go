package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/eca"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// sensorFeed is the paper's §6.1 power plant, scaled up and in memory:
// ~1,000 rivers feed one reactor that every client shares, behind a
// rule set of ~1,000 rules over many device classes of which only the
// river rules match the traffic. Each client transaction reports the
// water level of three rivers.
//
//   - WaterLevel (immediate) reads the river and the reactor and, on a
//     low level of a warm river, lowers the reactor's planned power;
//   - SustainedLowWater (deferred) fires on the transaction-scoped
//     sequence of three updates when all three are low;
//   - FloodWatch (detached) fires on a global-scope sequence of two
//     overflow readings within its validity interval.
type sensorFeed struct {
	rivers []*oodb.Object
	warm   []bool // per river: temperature above the WaterLevel threshold
}

const (
	sfRivers       = 1000
	sfDevices      = 40 // device classes, each with sfDeviceMethod monitored methods
	sfDeviceMethod = 25
	sfStep         = 5         // planned-power step of one WaterLevel firing
	sfPower0       = 1_000_000 // initial planned power
	sfLow          = 37        // WaterLevel and SustainedLowWater threshold
	sfOverflow     = 98        // level from which a river reports an overflow
	sfWarm         = 24.5      // WaterLevel temperature threshold
	sfWarmPct      = 25        // share of rivers above it
)

const sensorRules = `
rule WaterLevel {
    prio 5;
    decl River *river, int x, Reactor *reactor named "BlockA";
    event after river->updateWaterLevel(x);
    cond imm x < 37 and river->getWaterTemp() > 24.5
             and reactor->getHeatOutput() > 1000000;
    action imm reactor->reducePlannedPower(5);
};

rule SustainedLowWater {
    prio 3;
    decl River *r1, int a, River *r2, int b, River *r3, int c,
         Reactor *reactor named "BlockA";
    event seq(after r1->updateWaterLevel(a),
              after r2->updateWaterLevel(b),
              after r3->updateWaterLevel(c));
    cond deferred a < 37 and b < 37 and c < 37;
    action deferred reactor->raiseAlert();
};

rule FloodWatch {
    decl River *r1, int a, River *r2, int b, Pager *pager named "Pager";
    event seq(after r1->overflow(a), after r2->overflow(b));
    policy chronicle;
    scope global;
    validity 1s;
    action detached pager->page(a, b);
};
`

func (*sensorFeed) durable() bool { return false }

func (*sensorFeed) schema(b *bench, sys *core.System) error {
	river := oodb.NewClass("River",
		oodb.Attr{Name: "name", Type: oodb.TString},
		oodb.Attr{Name: "level", Type: oodb.TInt},
		oodb.Attr{Name: "temp", Type: oodb.TFloat})
	river.Monitored = true
	river.Method("updateWaterLevel", b.method(func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		if err := ctx.Set(self, "level", args[0]); err != nil {
			return nil, err
		}
		if args[0].(int64) >= sfOverflow {
			return ctx.Invoke(self, "overflow", args[0])
		}
		return nil, nil
	}))
	river.Method("getWaterTemp", b.method(func(ctx *oodb.Ctx, self *oodb.Object, _ []any) (any, error) {
		return ctx.GetFloat(self, "temp")
	}))
	river.Method("overflow", b.method(func(*oodb.Ctx, *oodb.Object, []any) (any, error) { return nil, nil }))

	reactor := oodb.NewClass("Reactor",
		oodb.Attr{Name: "heatOutput", Type: oodb.TFloat},
		oodb.Attr{Name: "plannedPower", Type: oodb.TInt},
		oodb.Attr{Name: "alerts", Type: oodb.TInt})
	reactor.Monitored = true
	reactor.Method("getHeatOutput", b.method(func(ctx *oodb.Ctx, self *oodb.Object, _ []any) (any, error) {
		return ctx.GetFloat(self, "heatOutput")
	}))
	reactor.Method("reducePlannedPower", b.method(func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, addInt(ctx, self, "plannedPower", -args[0].(int64))
	}))
	reactor.Method("raiseAlert", b.method(func(ctx *oodb.Ctx, self *oodb.Object, _ []any) (any, error) {
		return nil, addInt(ctx, self, "alerts", 1)
	}))

	// page files a new Page with the two overflow levels. It writes no
	// shared object: the rule binds the one pager under an S lock, so
	// concurrent FloodWatch firings that wrote it would deadlock on the
	// S→X upgrade, and now and then one would exhaust the executor's
	// retries.
	page := oodb.NewClass("Page",
		oodb.Attr{Name: "a", Type: oodb.TInt},
		oodb.Attr{Name: "b", Type: oodb.TInt})
	pager := oodb.NewClass("Pager", oodb.Attr{Name: "name", Type: oodb.TString})
	pager.Method("page", b.method(func(ctx *oodb.Ctx, _ *oodb.Object, args []any) (any, error) {
		p, err := ctx.New("Page")
		if err != nil {
			return nil, err
		}
		if err := ctx.Set(p, "a", args[0]); err != nil {
			return nil, err
		}
		return nil, ctx.Set(p, "b", args[1])
	}))

	classes := []*oodb.Class{river, reactor, page, pager}
	noop := b.method(func(*oodb.Ctx, *oodb.Object, []any) (any, error) { return nil, nil })
	for d := 0; d < sfDevices; d++ {
		dev := oodb.NewClass(fmt.Sprintf("Dev%02d", d), oodb.Attr{Name: "state", Type: oodb.TInt})
		dev.Monitored = true
		for m := 0; m < sfDeviceMethod; m++ {
			dev.Method(fmt.Sprintf("m%02d", m), noop)
		}
		dev.Method("trip", noop)
		classes = append(classes, dev)
	}
	for _, c := range classes {
		if err := sys.RegisterClass(c); err != nil {
			return err
		}
	}
	return nil
}

// deviceRules are the rules no traffic matches: one per device class
// and method, in all three basic couplings.
func deviceRules() string {
	var sb strings.Builder
	modes := []string{"imm", "deferred", "detached"}
	for d := 0; d < sfDevices; d++ {
		for m := 0; m < sfDeviceMethod; m++ {
			if d == 0 && m < 3 { // keep the rule set at 1,000
				continue
			}
			mode := modes[(d+m)%3]
			fmt.Fprintf(&sb, "rule Dev%02d_m%02d { prio %d; decl Dev%02d *d, int v; event after d->m%02d(v); "+
				"cond %s v > %d; action %s d->trip(v); };\n", d, m, m%5, d, m, mode, 50+m, mode)
		}
	}
	return sb.String()
}

func (w *sensorFeed) setup(b *bench, sys *core.System, rng *rand.Rand) error {
	if _, err := b.loadRules(sys, sensorRules+deviceRules()); err != nil {
		return err
	}
	t := sys.Begin()
	w.rivers, w.warm = make([]*oodb.Object, sfRivers), make([]bool, sfRivers)
	// A fixed share of the rivers is warm; the seed picks which.
	for _, i := range rng.Perm(sfRivers)[:sfRivers*sfWarmPct/100] {
		w.warm[i] = true
	}
	for i := range w.rivers {
		r, err := sys.DB.NewObject(t, "River")
		if err != nil {
			return err
		}
		temp := 10 + (sfWarm-10)*rng.Float64()
		if w.warm[i] {
			temp = sfWarm + 0.5 + 5*rng.Float64()
		}
		w.rivers[i] = r
		if err := setAll(sys, t, r, "name", fmt.Sprintf("R%04d", i), "level", int64(50), "temp", temp); err != nil {
			return err
		}
	}
	reactor, err := sys.DB.NewObject(t, "Reactor")
	if err != nil {
		return err
	}
	if err := setAll(sys, t, reactor, "heatOutput", 1_800_000.0, "plannedPower", int64(sfPower0)); err != nil {
		return err
	}
	pager, err := sys.DB.NewObject(t, "Pager")
	if err != nil {
		return err
	}
	if err := sys.DB.SetRoot(t, "BlockA", reactor); err != nil {
		return err
	}
	if err := sys.DB.SetRoot(t, "Pager", pager); err != nil {
		return err
	}
	return t.Commit()
}

type sensorOp struct {
	river [3]uint16
	level [3]int64
}

type sensorStream struct {
	w   *sensorFeed
	ops []sensorOp
	i   int
	cur *sensorOp

	// Acknowledged effects: WaterLevel firings and alerts of committed
	// transactions, computed from the inputs alone.
	fired  int64
	alerts int64
}

func (w *sensorFeed) stream(_ int, rng *rand.Rand) stream {
	s := &sensorStream{w: w, ops: make([]sensorOp, streamLen)}
	for i := range s.ops {
		op := &s.ops[i]
		for j := 0; j < 3; j++ {
		pick:
			op.river[j] = uint16(rng.Intn(sfRivers))
			for k := 0; k < j; k++ {
				if op.river[k] == op.river[j] {
					goto pick
				}
			}
			op.level[j] = int64(rng.Intn(100))
		}
	}
	return s
}

func (s *sensorStream) encode(buf []byte) []byte {
	for _, op := range s.ops {
		for j := 0; j < 3; j++ {
			buf = u64(buf, uint64(op.river[j])<<32|uint64(op.level[j]))
		}
	}
	return buf
}

func (s *sensorStream) next() {
	s.cur = &s.ops[s.i]
	s.i = (s.i + 1) % len(s.ops)
}

func (s *sensorStream) run(c *client, t *txn.Txn) error {
	for j := 0; j < 3; j++ {
		if _, err := c.invoke(t, s.w.rivers[s.cur.river[j]], "updateWaterLevel", s.cur.level[j]); err != nil {
			return err
		}
	}
	return nil
}

func (s *sensorStream) finish(committed bool) {
	if !committed || s.cur == nil {
		return
	}
	low := 0
	for j := 0; j < 3; j++ {
		if s.cur.level[j] < sfLow {
			low++
			if s.w.warm[s.cur.river[j]] {
				s.fired++
			}
		}
	}
	if low == 3 {
		s.alerts++
	}
}

func (s *sensorStream) userBytes() int64 { return 3 * 8 }

func (*sensorFeed) checkLive(*bench, *core.System) error { return nil }

func (w *sensorFeed) check(b *bench, sys *core.System) error {
	var fired, alerts int64
	for _, c := range b.clients {
		s := c.stream.(*sensorStream)
		fired += s.fired
		alerts += s.alerts
	}
	t := sys.Begin()
	defer t.Commit()
	reactor, err := sys.DB.Root(t, "BlockA")
	if err != nil {
		return err
	}
	power, err := getInt(sys, t, reactor, "plannedPower")
	if err != nil {
		return err
	}
	got, err := getInt(sys, t, reactor, "alerts")
	if err != nil {
		return err
	}
	if want := int64(sfPower0) - sfStep*fired; power != want {
		return fmt.Errorf("%w: reactor planned power %d, want %d (%d acknowledged WaterLevel firings)",
			errCheck, power, want, fired)
	}
	if got != alerts {
		return fmt.Errorf("%w: reactor alerts %d, want %d acknowledged SustainedLowWater firings", errCheck, got, alerts)
	}
	return nil
}

// plant loses one acknowledged WaterLevel effect.
func (*sensorFeed) plant(_ *bench, sys *core.System) error {
	t := sys.Begin()
	reactor, err := sys.DB.Root(t, "BlockA")
	if err != nil {
		return err
	}
	if err := addInt(&oodb.Ctx{DB: sys.DB, Txn: t}, reactor, "plannedPower", sfStep); err != nil {
		return err
	}
	return t.Commit()
}

func (*sensorFeed) deadLetter(*bench, eca.DeadLetter) bool { return true }

// --- helpers shared by the workloads ---

func addInt(ctx *oodb.Ctx, obj *oodb.Object, attr string, delta int64) error {
	v, err := ctx.GetInt(obj, attr)
	if err != nil {
		return err
	}
	return ctx.Set(obj, attr, v+delta)
}

func getInt(sys *core.System, t *txn.Txn, obj *oodb.Object, attr string) (int64, error) {
	return (&oodb.Ctx{DB: sys.DB, Txn: t}).GetInt(obj, attr)
}

// setAll sets attribute/value pairs on obj.
func setAll(sys *core.System, t *txn.Txn, obj *oodb.Object, kv ...any) error {
	for i := 0; i < len(kv); i += 2 {
		if err := sys.DB.Set(t, obj, kv[i].(string), kv[i+1]); err != nil {
			return err
		}
	}
	return nil
}
