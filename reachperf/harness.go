package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic" //lint:allow rawatomics the client deadline state machine and window flags synchronize goroutines; they are not metrics
	"time"

	"repro/internal/core"
	"repro/internal/eca"
	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/txn"
)

// workload is one traffic mix: its schema, rules and data, the
// operation stream each client replays, and the check of its output.
type workload interface {
	durable() bool
	// schema registers the classes; it runs again before a reopen.
	schema(b *bench, sys *core.System) error
	// setup loads the rules (through b.loadRules) and the data.
	setup(b *bench, sys *core.System, rng *rand.Rand) error
	// stream generates one client's operation stream.
	stream(client int, rng *rand.Rand) stream
	// checkLive runs on the live system once the detached work has
	// drained, before shutdown.
	checkLive(b *bench, sys *core.System) error
	// check compares the final state (after a reopen when durable)
	// with what the clients were told committed.
	check(b *bench, sys *core.System) error
	// plant commits one lost write into the checked state.
	plant(b *bench, sys *core.System) error
	// deadLetter attributes one dead-lettered firing to the client
	// operation that raised it; false means not attributable yet.
	deadLetter(b *bench, dl eca.DeadLetter) bool
}

// stream is one client's pre-generated operation stream, replayed in
// a cycle.
type stream interface {
	// next moves on to the next operation.
	next()
	// run executes the current operation inside t; a retry runs it
	// again in a new transaction.
	run(c *client, t *txn.Txn) error
	// finish records the outcome of one run of the operation.
	finish(committed bool)
	// encode writes the stream for the run's stream hash.
	encode(buf []byte) []byte
	// userBytes is the payload the last committed operation wrote.
	userBytes() int64
}

var workloads = map[string]workload{
	"sensor-feed":  &sensorFeed{},
	"store-churn":  &storeChurn{},
	"alarm-fanout": &alarmFanout{},
}

// streamLen is the number of operations generated per client; the
// stream replays cyclically.
const streamLen = 1 << 15

// nSlices is how many equal slices a measured window is cut into for
// the end-to-end throughput, a median over them.
const nSlices = 10

// spanCap bounds the spans each recorder keeps for the span file.
const spanCap = 1 << 16

type bench struct {
	cfg  config
	wl   workload
	info runInfo

	sys     *core.System
	loaded  []*rules.Loaded
	dir     string
	fs      *timingFS
	clients []*client
	rulesMS float64
	// liveBytes is the payload of the data the check found, the base
	// of storage.disk_bytes_per_user_byte.
	liveBytes int64

	stop      atomic.Bool
	recording atomic.Bool // inside a measured window
	tracing   atomic.Bool // inside the traced window
	winStart  atomic.Int64
	winEnd    atomic.Int64
	winLen    time.Duration // planned length of the current window

	react syncHist // trigger to end of a detached rule's successful action
	det   detachedTrace

	dlMu      sync.Mutex
	dlSeen    map[string]bool
	dlAll     []eca.DeadLetter
	dlPending []eca.DeadLetter
}

func newBench(cfg config, wl workload) *bench {
	b := &bench{cfg: cfg, wl: wl, dlSeen: make(map[string]bool)}
	b.det.started = make(map[uint64]bool)
	b.det.epoch = wall.Now() // span times of every recorder count from here
	// Only a traced run keeps spans: the buffers would otherwise count
	// in peak_heap_mb.
	if cfg.trace {
		b.det.spans = make([]span, 0, spanCap)
	}
	b.winEnd.Store(1<<63 - 1)
	return b
}

// clientKey tags a client's top-level transactions so rule callbacks,
// method bodies and the sink find the client they run for.
type clientKey struct{}

func clientOf(t *txn.Txn) *client {
	if t == nil {
		return nil
	}
	c, _ := t.Top().Value(clientKey{}).(*client)
	return c
}

// traced returns the recorder of the client t belongs to while the
// traced window is on.
func (b *bench) traced(t *txn.Txn) *recorder {
	if !b.tracing.Load() {
		return nil
	}
	if c := clientOf(t); c != nil {
		return c.rec
	}
	return nil
}

// method wraps a method body so the traced window sees it as the
// application's own code.
func (b *bench) method(impl oodb.MethodImpl) oodb.MethodImpl {
	return func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		if r := b.traced(ctx.Txn); r != nil {
			r.push(lMethod)
			defer r.pop()
		}
		return impl(ctx, self, args)
	}
}

// loadRules loads a rule-language source through System.LoadRules and
// wraps every loaded rule's callbacks (see wrapRule).
func (b *bench) loadRules(sys *core.System, src string) (*rules.Loaded, error) {
	start := wall.Now()
	l, err := sys.LoadRules(src)
	b.rulesMS += float64(wall.Now().Sub(start)) / 1e6
	if err != nil {
		return nil, err
	}
	for _, r := range l.Rules {
		b.wrapRule(r)
	}
	b.loaded = append(b.loaded, l)
	return l, nil
}

// wrapRule wraps a loaded rule's condition and action. For rules that
// run on the client's goroutine (immediate, deferred) the wrapper
// publishes the rule's subtransaction as the client's innermost
// transaction, so the deadline aborts the blocked child, and records a
// span when tracing. For detached rules it records the reaction time
// of successful actions and, when tracing, the detached spans.
func (b *bench) wrapRule(r *eca.Rule) {
	condMode := r.CondMode
	if condMode == 0 {
		condMode = r.ActionMode
	}
	if r.Cond != nil {
		inner := r.Cond
		if condMode.Detachedness() {
			r.Cond = func(rc *eca.RuleCtx) (bool, error) {
				start := b.detachedStart(rc, true)
				ok, err := inner(rc)
				b.detachedEnd(rc, lCondDetached, start)
				return ok, err
			}
		} else {
			l := lCondImmediate
			if condMode == eca.Deferred {
				l = lCondDeferred
			}
			r.Cond = func(rc *eca.RuleCtx) (bool, error) {
				var ok bool
				err := b.inClient(rc, l, true, func() error {
					var err error
					ok, err = inner(rc)
					return err
				})
				return ok, err
			}
		}
	}
	inner := r.Action
	if r.ActionMode.Detachedness() {
		entry := r.Cond == nil
		r.Action = func(rc *eca.RuleCtx) error {
			start := b.detachedStart(rc, entry)
			err := inner(rc)
			end := b.detachedEnd(rc, lActionDetached, start)
			if err == nil {
				b.reacted(rc, end)
			}
			return err
		}
		return
	}
	l := lActionImmediate
	if r.ActionMode == eca.Deferred {
		l = lActionDeferred
	}
	entry := r.Cond == nil
	r.Action = func(rc *eca.RuleCtx) error {
		return b.inClient(rc, l, entry, func() error { return inner(rc) })
	}
}

// inClient runs a rule callback on the client's goroutine; entry marks
// the callback a firing starts with (its condition, if any).
func (b *bench) inClient(rc *eca.RuleCtx, l layer, entry bool, fn func() error) error {
	c := clientOf(rc.Txn)
	if c == nil {
		return fn()
	}
	prev := c.cur.Swap(rc.Txn)
	defer c.cur.Store(prev)
	if b.tracing.Load() {
		if in := rc.Trigger; entry && len(in.Parts) > 0 {
			b.det.composeLag(wall.Now().Sub(lastPart(in)))
		}
		c.rec.push(l)
		defer c.rec.pop()
	}
	return fn()
}

func (b *bench) detachedStart(rc *eca.RuleCtx, entry bool) time.Time {
	start := wall.Now()
	if b.tracing.Load() && entry {
		b.det.firstAttempt(rc.Trigger, start)
		if len(rc.Trigger.Parts) > 0 {
			b.det.composeLag(start.Sub(lastPart(rc.Trigger)))
		}
	}
	return start
}

func (b *bench) detachedEnd(rc *eca.RuleCtx, l layer, start time.Time) time.Time {
	end := wall.Now()
	if b.tracing.Load() {
		b.det.record(l, rc.Txn.ID(), triggerTxn(rc.Trigger), start, end)
	}
	return end
}

// reacted records the reaction time of a detached firing whose
// trigger falls inside the measured window.
func (b *bench) reacted(rc *eca.RuleCtx, end time.Time) {
	at := rc.Trigger.Time.UnixNano()
	if at >= b.winStart.Load() && at < b.winEnd.Load() {
		b.react.record(end.Sub(rc.Trigger.Time))
	}
}

// --- clients ---

// Client transaction phases, packed with a generation number into
// client.word so a deadline expiry hits exactly the transaction it
// was measured for.
const (
	phIdle uint64 = iota
	phRun
	phCommit
	phExpired
)

var errDeadline = errors.New("reachperf: client transaction deadline expired")

type client struct {
	b      *bench
	id     int
	stream stream
	rec    *recorder
	gid    atomic.Pointer[string] // "goroutine N [" of the client's goroutine, for the lock-wait probe
	// suspect is the word of a transaction the scanner saw past its
	// deadline in a lock wait; owned by the scanner.
	suspect uint64

	// Deadline state, shared with the deadline scanner.
	mu   sync.Mutex // orders a deadline abort before the end of the transaction
	word atomic.Uint64
	due  atomic.Int64
	top  atomic.Pointer[txn.Txn]
	cur  atomic.Pointer[txn.Txn] // innermost transaction the client runs in
	gen  uint64

	// Window counters, owned by the client goroutine. Commits are also
	// counted per slice of the window.
	lat     hist
	sliceN  [nSlices]uint64
	n       counts
	lastErr error
}

// counts are one window's client outcomes: of operations, and of the
// transactions that ran them.
type counts struct {
	ops, gaveUp                       uint64 // operations, and those that failed every try
	attempted, committed              uint64 // transactions
	refused, deadlocks, wedged, other uint64
	userBytes                         int64 // payload written by committed operations
}

func (n *counts) add(o counts) {
	n.ops += o.ops
	n.gaveUp += o.gaveUp
	n.attempted += o.attempted
	n.committed += o.committed
	n.refused += o.refused
	n.deadlocks += o.deadlocks
	n.wedged += o.wedged
	n.other += o.other
	n.userBytes += o.userBytes
}

func (c *client) arm(t *txn.Txn) {
	c.gen++
	c.due.Store(wall.Now().Add(c.b.cfg.deadline).UnixNano())
	c.top.Store(t)
	c.cur.Store(t)
	c.word.Store(c.gen<<2 | phRun)
}

// disarm ends the transaction's deadline and reports whether it
// expired.
func (c *client) disarm() bool {
	c.mu.Lock()
	w := c.word.Swap(c.gen<<2 | phIdle)
	c.mu.Unlock()
	c.top.Store(nil)
	c.cur.Store(nil)
	return w&3 == phExpired
}

// expire aborts the client's innermost transaction once its deadline
// passed and the client sat parked in a lock wait on two consecutive
// scans. A transaction is not safe to abort from another goroutine
// while its own goroutine runs it (a write made after the abort is
// never undone), so a late transaction that is still running is left
// to finish, and so is a top-level transaction already inside Commit,
// which could race the durable commit. It reports whether it aborted.
func (c *client) expire(now int64, p *lockProbe) bool {
	w := c.word.Load()
	ph := w & 3
	if (ph != phRun && ph != phCommit) || now < c.due.Load() {
		return false
	}
	gid := c.gid.Load()
	if t := c.cur.Load(); t == nil || gid == nil || (ph == phCommit && t == c.top.Load()) || !p.inLockWait(*gid) {
		return false
	}
	if c.suspect != w {
		c.suspect = w // confirm on the next scan
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.word.CompareAndSwap(w, w&^3|phExpired) {
		return false
	}
	t := c.cur.Load()
	if t == nil || (ph == phCommit && t == c.top.Load()) {
		return false
	}
	// c.mu orders this abort before the client ends the transaction.
	_ = t.AbortWith(errDeadline) //lint:allow lockdiscipline the abort does not call back into the benchmark's locks; the blocked caller reports the failure
	return true
}

// settled reports whether the client finished the transaction a
// deadline abort hit, releasing its locks.
func (c *client) settled(w uint64) bool { return c.word.Load() != w&^3|phExpired }

func (c *client) resetWindow() {
	c.lat, c.sliceN, c.n, c.lastErr = hist{}, [nSlices]uint64{}, counts{}, nil
}

// maxTries bounds how often a client runs one operation before it
// gives up on it.
const maxTries = 20

// one runs one closed-loop client operation. Like an application, the
// client runs an operation again in a new transaction when the system
// aborts it for reasons that are not the operation's own: a governor
// refusal, a deadlock victim, a deadline abort. Every transaction,
// retried or not, counts in the window's transaction figures; the
// operation fails only when it gives up.
func (c *client) one() {
	c.stream.next()
	start := wall.Now()
	var err error
	for try := 1; try <= maxTries; try++ {
		var retry bool
		if retry, err = c.attempt(); err == nil || !retry {
			break
		}
	}
	if c.b.inWindow(start, wall.Now()) {
		c.n.ops++
		if err != nil {
			c.n.gaveUp++
		}
	}
}

// attempt runs the client's current operation in one transaction. It
// reports whether the operation may be run again, and the
// transaction's error.
func (c *client) attempt() (retry bool, err error) {
	b := c.b
	rec := b.tracing.Load()
	start := wall.Now()
	if rec {
		c.rec.push(lTxn)
		c.rec.push(lBegin)
	}
	t, err := b.sys.BeginTxn()
	if rec {
		c.rec.pop()
	}
	if err != nil {
		if rec {
			c.rec.pop()
		}
		if c.count(start, false) {
			c.n.refused++
		}
		return errors.Is(err, governor.ErrOverloaded), err
	}
	if rec {
		c.rec.retag(t.ID())
	}
	t.SetValue(clientKey{}, c)
	c.arm(t)
	err = c.stream.run(c, t)
	if err == nil && c.word.CompareAndSwap(c.gen<<2|phRun, c.gen<<2|phCommit) {
		if rec {
			c.rec.push(lCommit)
		}
		err = t.Commit()
		if rec {
			c.rec.pop()
		}
	} else if err == nil {
		err = errDeadline
	}
	expired := c.disarm()
	if err != nil && t.Status() == txn.Active {
		_ = t.Abort() // the operation's error is what the client reports
	}
	if rec {
		c.rec.pop()
	}
	c.stream.finish(err == nil)
	retry = expired || errors.Is(err, txn.ErrDeadlock)
	if !c.count(start, err == nil) {
		return retry, err
	}
	switch {
	case err == nil:
		c.n.committed++
		c.n.userBytes += c.stream.userBytes()
	case expired:
		c.n.wedged++
	case errors.Is(err, txn.ErrDeadlock):
		c.n.deadlocks++
	default:
		c.n.other++
		c.lastErr = err
	}
	return retry, err
}

// count records one transaction in the window when it ended inside
// it; it reports whether it did.
func (c *client) count(start time.Time, ok bool) bool {
	b := c.b
	end := wall.Now()
	if !b.inWindow(start, end) {
		return false
	}
	k := int((end.UnixNano() - b.winStart.Load()) * nSlices / int64(b.winLen))
	k = min(max(k, 0), nSlices-1)
	c.n.attempted++
	if ok {
		c.lat.record(end.Sub(start))
		c.sliceN[k]++
	} else {
		c.lat.fail()
	}
	return true
}

// inWindow reports whether work that ran from start to end lies inside
// the measured window.
func (b *bench) inWindow(start, end time.Time) bool {
	return b.recording.Load() && start.UnixNano() >= b.winStart.Load() && end.UnixNano() < b.winEnd.Load()
}

// goroutineID returns the header the calling goroutine has in a stack
// dump: "goroutine N [".
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.IndexByte(buf, '['); i > 0 {
		return string(buf[:i+1])
	}
	return string(buf)
}

// lockProbe tells whether a goroutine is parked in the lock manager's
// wait, from one stack dump of all goroutines per scan (taken only
// when some client is past its deadline).
type lockProbe struct {
	dump  []byte
	dumps int
}

func (p *lockProbe) inLockWait(gid string) bool {
	if len(p.dump) == 0 {
		p.dumps++
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				p.dump = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
	}
	i := bytes.Index(p.dump, []byte(gid))
	if i < 0 {
		return false
	}
	g := p.dump[i:]
	if j := bytes.Index(g, []byte("\n\n")); j >= 0 {
		g = g[:j]
	}
	return bytes.HasPrefix(g[len(gid):], []byte("chan receive")) &&
		bytes.Contains(g, []byte("repro/internal/txn.(*lockTable).acquire"))
}

// --- the run ---

func (b *bench) run() (*result, error) {
	cfg := b.cfg
	b.info = hostInfo(cfg, cfg.outDir)
	b.info.Flush = "in-memory (no storage)"
	if b.wl.durable() {
		b.info.Flush = "wal fsync on every commit, group commit, background fuzzy checkpointer"
	}

	// Streams first: generated from the seed before anything is timed.
	h := sha256.New()
	var buf []byte
	for i := 0; i < nClients; i++ {
		rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(i) + 1))
		c := &client{b: b, id: i, stream: b.wl.stream(i, rng), rec: newRecorder(b.det.epoch, cap(b.det.spans))}
		buf = c.stream.encode(buf[:0])
		h.Write(buf)
		b.clients = append(b.clients, c)
	}
	b.info.StreamHash = hex.EncodeToString(h.Sum(nil))[:16]

	var setups []float64
	var spent float64
	for i := 0; ; i++ {
		// Each set-up starts from the same state: the build's and the
		// last teardown's writes flushed, the heap collected.
		if b.wl.durable() {
			settleDisk()
		}
		runtime.GC()
		d, err := b.setupOnce(i)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
		spent += d.Seconds()
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget.Seconds()) {
			break
		}
		if err := b.teardown(); err != nil {
			return nil, fmt.Errorf("setup %d teardown: %w", i, err)
		}
	}
	b.info.SetupS = setups
	if b.dir != "" {
		defer os.RemoveAll(b.dir)
	}

	sampler := b.startSampler()
	b.window(warmup, false, false)
	untraced := b.window(time.Duration(cfg.seconds)*time.Second, true, false)
	var traced *windowStats
	if cfg.trace {
		b.sys.DB.SetSink(traceSink{b: b, inner: b.sys.Engine.Dispatcher()})
		traced = b.window(time.Duration(cfg.seconds)*time.Second, true, true)
		untraced.until = traced.start
		b.sys.DB.SetSink(b.sys.Engine.Dispatcher())
	}
	last := untraced
	if traced != nil {
		last = traced
	}

	// Drain the detached work, bounded; what is still stuck has failed.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	derr := b.sys.Engine.Drain(ctx)
	cancel()
	stuck := b.sys.Engine.DetachedBacklog()
	sampler.stop()
	b.pollDeadLetters()
	dlKinds := map[string]int{}
	for _, dl := range b.dlAll {
		dlKinds[fmt.Sprintf("rule %s, reason %s, last error %q", dl.Rule, dl.Reason, dl.Err)]++
	}
	for k, n := range dlKinds {
		fmt.Fprintf(os.Stderr, "reachperf: %d dead letters: %s\n", n, k)
	}
	last.stuck = uint64(stuck)
	for _, ws := range []*windowStats{untraced, traced} {
		if ws != nil {
			ws.deadLetters = b.deadLettersIn(ws)
		}
	}
	last.react.inf += uint64(stuck)

	checkErr := b.checkAll(derr, stuck, last)
	b.info.Check = "ok"
	if checkErr != nil {
		if !errors.Is(checkErr, errCheck) {
			return nil, checkErr
		}
		b.info.Check = checkErr.Error()
		fmt.Fprintln(os.Stderr, "reachperf: OUTPUT CHECK FAILED:", checkErr)
	}
	if traced != nil {
		b.info.SpanFile = spanPath(cfg)
		recs := make([]*recorder, len(b.clients))
		for i, c := range b.clients {
			recs[i] = c.rec
		}
		if err := writeSpans(b.info.SpanFile, recs, &b.det); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		b.info.SpansDropped = b.det.drops
		for _, r := range recs {
			b.info.SpansDropped += r.drops
		}
	}
	res := &result{Correct: checkErr == nil && b.info.SelfCheck == "planted lost write caught"}
	res.Attempted, res.Failed = last.attempts(), last.failures()
	if cfg.trace {
		res.Metrics = b.layerMetrics(untraced, traced)
	} else {
		res.Metrics = b.endToEnd(untraced, setups)
	}
	return res, nil
}

// setupOnce opens a fresh system and sets it up: schema, rules, data.
func (b *bench) setupOnce(i int) (time.Duration, error) {
	cfg := b.cfg
	opts := core.Options{}
	if b.wl.durable() {
		b.dir = filepath.Join(cfg.outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(b.dir); err != nil {
			return 0, err
		}
		if err := os.MkdirAll(b.dir, 0o755); err != nil {
			return 0, err
		}
		b.fs = &timingFS{inner: fault.OS{}, on: b.tracing.Load}
		opts.Dir = b.dir
		if cfg.trace {
			opts.DB.Storage.FS = b.fs
		}
	}
	b.loaded, b.rulesMS = nil, 0
	start := wall.Now()
	sys, err := core.Open(opts)
	if err != nil {
		return 0, err
	}
	b.sys = sys
	if err := b.wl.schema(b, sys); err != nil {
		return 0, err
	}
	if err := b.wl.setup(b, sys, rand.New(rand.NewSource(cfg.seed))); err != nil {
		return 0, err
	}
	// A bulk load ends with a checkpoint, so the window does not start
	// by flushing the load.
	if err := sys.DB.Checkpoint(); err != nil {
		return 0, err
	}
	return wall.Now().Sub(start), nil
}

func (b *bench) teardown() error {
	for _, l := range b.loaded {
		l.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := b.sys.Shutdown(ctx)
	if b.dir != "" {
		err = errors.Join(err, os.RemoveAll(b.dir))
	}
	return err
}

// windowStats is what one measured window observed.
type windowStats struct {
	elapsed       time.Duration
	lat           hist
	sliceN        [nSlices]uint64 // commits per slice
	react         hist
	clients       counts
	peakHeap      uint64
	unhealthy     time.Duration
	before, after snapshot
	deadLetters   dlCount
	stuck         uint64
	until         time.Time // dead letters from here on belong to a later window
	reopen        time.Duration
	diskBytes     int64
	self          [nLayers]int64 // self time per layer, all clients
	incl          [nLayers]int64 // inclusive time per layer
	start, end    time.Time
}

type dlCount struct {
	total    uint64
	rejected uint64 // shed or refused at spawn, never accepted
}

// attempts and failures are the result line's: client operations,
// which a client retries after an abort, and detached firings.
func (w *windowStats) attempts() uint64 {
	return w.clients.ops + w.firings()
}

func (w *windowStats) failures() uint64 {
	return w.clients.gaveUp + w.deadLetters.total + w.stuck
}

// failedRatio is failed_ratio: every client transaction that did not
// commit, retried or not, and every failed firing, over all client
// transactions and firings.
func (w *windowStats) failedRatio() float64 {
	c := &w.clients
	aborted := c.refused + c.deadlocks + c.wedged + c.other
	return ratio(float64(aborted+w.deadLetters.total+w.stuck), float64(c.attempted+w.firings()))
}

func (w *windowStats) firings() uint64 {
	return w.after.engine.DetachedFired - w.before.engine.DetachedFired + w.deadLetters.rejected
}

// window runs the clients for d. A measured window resets and then
// collects every counter; a traced one also switches the recorders on.
func (b *bench) window(d time.Duration, measured, traced bool) *windowStats {
	if b.wl.durable() {
		settleDisk() // earlier writes, ours or not, flush before the window
	}
	runtime.GC()
	runtime.GC()
	ws := &windowStats{}
	for _, c := range b.clients {
		c.resetWindow()
		c.rec.reset()
	}
	if traced {
		b.det.reset()
		if b.fs != nil {
			b.fs.reset()
		}
	}
	b.react.reset()
	b.winLen = d
	b.stop.Store(false)
	b.tracing.Store(traced)
	ws.before = b.snap()
	ws.start = wall.Now()
	b.winStart.Store(ws.start.UnixNano())
	b.winEnd.Store(1<<63 - 1)
	b.recording.Store(measured)
	mon := b.startMonitor(ws, measured)

	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			gid := goroutineID()
			c.gid.Store(&gid)
			for !b.stop.Load() {
				c.one()
			}
		}(c)
	}
	<-wall.After(d)
	ws.end = wall.Now()
	b.winEnd.Store(ws.end.UnixNano())
	b.stop.Store(true)
	wg.Wait()
	mon.stop()
	b.recording.Store(false)
	b.tracing.Store(false)
	ws.after = b.snap()
	ws.elapsed = ws.end.Sub(ws.start)
	for _, c := range b.clients {
		ws.lat.merge(&c.lat)
		for k, n := range c.sliceN {
			ws.sliceN[k] += n
		}
		ws.clients.add(c.n)
		if c.lastErr != nil {
			fmt.Fprintf(os.Stderr, "reachperf: client %d: %d other failures, last: %v\n", c.id, c.n.other, c.lastErr)
		}
		for l := layer(0); l < nLayers; l++ {
			ws.self[l] += c.rec.self[l]
			ws.incl[l] += c.rec.incl[l]
		}
	}
	ws.react = b.react.snapshot()
	if measured {
		n := ws.clients
		fmt.Fprintf(os.Stderr, "reachperf: window %.1fs traced=%v: %d operations, %d given up; %d transactions, %d committed, %d refused, %d deadlock victims, %d deadline aborts, %d other; commits per slice %v\n",
			ws.elapsed.Seconds(), traced, n.ops, n.gaveUp, n.attempted, n.committed, n.refused, n.deadlocks, n.wedged, n.other, ws.sliceN)
	}
	return ws
}

// monitor is the per-window helper goroutine: the deadline scanner,
// and in a measured window the live-heap and governor sampler.
type monitor struct {
	done chan struct{}
	wg   sync.WaitGroup
}

func (m *monitor) stop() {
	close(m.done)
	m.wg.Wait()
}

func (b *bench) startMonitor(ws *windowStats, measured bool) *monitor {
	m := &monitor{done: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		last := wall.Now()
		probe := &lockProbe{}
		// After a deadline abort no other client is judged until the
		// aborted one has settled: its releases wake the others.
		var settling *client
		var settlingWord uint64
		for n := 0; ; n++ {
			select {
			case <-m.done:
				if probe.dumps > 0 {
					fmt.Fprintf(os.Stderr, "reachperf: %d stack dumps\n", probe.dumps)
				}
				return
			case now := <-wall.After(2 * time.Millisecond):
				if settling != nil && settling.settled(settlingWord) {
					settling = nil
				}
				probe.dump = probe.dump[:0]
				for _, c := range b.clients {
					if settling != nil {
						break
					}
					if c.expire(now.UnixNano(), probe) {
						settling, settlingWord = c, c.word.Load()
					}
				}
				if !measured || n%5 != 0 {
					continue
				}
				metrics.Read(sample)
				if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > ws.peakHeap {
					ws.peakHeap = v.Uint64()
				}
				if b.sys.Governor.State() != governor.Healthy {
					ws.unhealthy += now.Sub(last)
				}
				last = now
			}
		}
	}()
	return m
}

// sampler polls the dead-letter queue for the whole run: the queue is
// a bounded ring, so entries are collected before they can be evicted.
type sampler struct {
	done chan struct{}
	wg   sync.WaitGroup
}

func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
}

func (b *bench) startSampler() *sampler {
	s := &sampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-s.done:
				return
			case <-wall.After(10 * time.Millisecond):
				b.pollDeadLetters()
			}
		}
	}()
	return s
}

func (b *bench) pollDeadLetters() {
	dls := b.sys.Engine.DeadLetters()
	b.dlMu.Lock()
	defer b.dlMu.Unlock()
	for _, dl := range dls {
		key := fmt.Sprintf("%s/%d/%d", dl.Rule, dl.Seq, dl.Time.UnixNano())
		if b.dlSeen[key] {
			continue
		}
		b.dlSeen[key] = true
		b.dlAll = append(b.dlAll, dl)
		b.dlPending = append(b.dlPending, dl)
	}
	kept := b.dlPending[:0]
	for _, dl := range b.dlPending {
		if !b.wl.deadLetter(b, dl) {
			kept = append(kept, dl)
		}
	}
	b.dlPending = kept
}

func (b *bench) deadLettersIn(ws *windowStats) dlCount {
	b.dlMu.Lock()
	defer b.dlMu.Unlock()
	var n dlCount
	for _, dl := range b.dlAll {
		if dl.Time.Before(ws.start) || (!ws.until.IsZero() && !dl.Time.Before(ws.until)) {
			continue
		}
		n.total++
		if dl.Attempts == 0 {
			n.rejected++
		}
	}
	ws.react.inf += n.total
	return n
}

// checkAll runs the workload's output check and the planted-lost-write
// self-check. A durable workload is shut down gracefully and reopened
// first, and the reopen is timed.
func (b *bench) checkAll(drainErr error, stuck int64, ws *windowStats) error {
	if drainErr != nil || stuck > 0 {
		return fmt.Errorf("%w: %d detached firings still running after the drain bound (%v)", errCheck, stuck, drainErr)
	}
	b.dlMu.Lock()
	pending := len(b.dlPending)
	total := uint64(len(b.dlAll))
	b.dlMu.Unlock()
	if pending > 0 {
		return fmt.Errorf("%w: %d dead letters not attributable to a client operation", errCheck, pending)
	}
	if got := b.counter("reach_rule_deadletter_total"); got != total {
		return fmt.Errorf("%w: the engine dead-lettered %d firings, the poll saw %d", errCheck, got, total)
	}
	if err := b.wl.checkLive(b, b.sys); err != nil {
		return err
	}
	sys := b.sys
	if b.wl.durable() {
		for _, l := range b.loaded {
			l.Stop()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		err := b.sys.Shutdown(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		start := wall.Now()
		reopened, err := core.Open(core.Options{Dir: b.dir})
		if err != nil {
			return fmt.Errorf("%w: reopen: %v", errCheck, err)
		}
		ws.reopen = wall.Now().Sub(start)
		ws.diskBytes = dirBytes(b.dir)
		defer reopened.Close()
		if err := b.wl.schema(b, reopened); err != nil {
			return err
		}
		sys = reopened
	} else {
		defer sys.Close()
	}
	if err := b.wl.check(b, sys); err != nil {
		return err
	}
	b.info.SelfCheck = "planted lost write NOT caught"
	if err := b.wl.plant(b, sys); err != nil {
		return fmt.Errorf("planting a lost write: %w", err)
	}
	if err := b.wl.check(b, sys); errors.Is(err, errCheck) {
		b.info.SelfCheck = "planted lost write caught"
	} else if err != nil {
		return err
	}
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// --- counter snapshots ---

type snapshot struct {
	engine      eca.Stats
	useful      uint64
	useless     uint64
	potential   uint64
	storage     storage.Stats
	sheds       uint64
	lockWaits   uint64
	lockWaitNS  uint64
	retries     uint64
	deadLetters uint64
	semi        int
	ckpt        [48]uint64
	mallocs     uint64
	allocBytes  uint64
}

func (b *bench) snap() snapshot {
	sys := b.sys
	var s snapshot
	s.engine = sys.Engine.Stats()
	s.useful, s.useless, s.potential = sys.Engine.Dispatcher().Stats()
	s.storage = sys.DB.StorageStats()
	for _, n := range sys.Governor.Sheds() {
		s.sheds += n
	}
	for _, f := range sys.Metrics.Snapshot() {
		switch f.Name {
		case "reach_lock_wait_seconds":
			for _, se := range f.Series {
				s.lockWaits += se.Count
				s.lockWaitNS += se.SumNS
			}
		case "reach_rule_retries_total":
			s.retries = seriesValue(f.Series)
		case "reach_rule_deadletter_total":
			s.deadLetters = seriesValue(f.Series)
		}
	}
	s.semi = sys.Engine.SemiComposed()
	ck := sys.Metrics.Histogram("reach_checkpoint_seconds", "").Snapshot()
	s.ckpt = ck.Buckets
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	return s
}

func (b *bench) counter(name string) uint64 {
	for _, f := range b.sys.Metrics.Snapshot() {
		if f.Name == name {
			return seriesValue(f.Series)
		}
	}
	return 0
}

func seriesValue(ss []obs.SeriesSnapshot) uint64 {
	var n uint64
	for _, s := range ss {
		if s.Value != nil {
			n += uint64(*s.Value)
		}
	}
	return n
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// u64 appends v little-endian to buf (stream encoding).
func u64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }
