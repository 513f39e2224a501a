package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// layer names one kind of span. Every span the traced run records is
// taken in the benchmark's own code around a call into one module's
// public surface; nothing inside the program is instrumented.
type layer uint8

const (
	lTxn             layer = iota // client transaction, BeginTxn to Commit's return
	lBegin                        // System.BeginTxn (governor admission included)
	lCommit                       // Txn.Commit (deferred rules and durability inside)
	lOODB                         // a client call into oodb (Invoke, Load, Get, Set, ...)
	lSelect                       // query.Processor.Select
	lEmit                         // oodb.Sink.Emit around the sentry dispatcher
	lCondImmediate                // rule condition callback, immediate coupling
	lActionImmediate              // rule action callback, immediate coupling
	lCondDeferred                 // rule condition callback, deferred coupling
	lActionDeferred               // rule action callback, deferred coupling
	lCondDetached                 // rule condition callback, a detached mode
	lActionDetached               // rule action callback, a detached mode
	lMethod                       // a method body (the application's own code)
	nLayers
)

var layerNames = [nLayers]string{
	"txn", "txn.begin", "txn.commit", "oodb", "query.select", "sentry.emit",
	"eca.cond.immediate", "eca.action.immediate", "eca.cond.deferred",
	"eca.action.deferred", "eca.cond.detached", "eca.action.detached", "app.method",
}

// span is one recorded interval. ID is the client transaction's ID
// for every span of that transaction; detached and composite work
// carries its own rule transaction's ID and links to the triggering
// transaction through Link (the event's Instance.Txn).
type span struct {
	ID     uint64
	Link   uint64
	Parent int32 // index of the parent span in the same recorder, -1 for none
	Layer  layer
	Start  int64 // ns since the recorder's epoch
	End    int64
}

type frame struct {
	l     layer
	start int64
	child int64
	idx   int32
}

// recorder collects one goroutine's nested spans. Self time (a span's
// duration minus the part its children cover) is accumulated online,
// so the aggregates stay exact when the bounded span buffer fills.
type recorder struct {
	epoch time.Time
	id    uint64
	stack []frame
	self  [nLayers]int64
	incl  [nLayers]int64
	count [nLayers]uint64
	hists [nLayers]*hist // duration distributions of the layers percentiles are reported for
	spans []span
	drops uint64
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	r := &recorder{epoch: epoch, stack: make([]frame, 0, 16), spans: make([]span, 0, capacity)}
	for _, l := range []layer{lBegin, lCommit, lSelect} {
		r.hists[l] = new(hist)
	}
	return r
}

func (r *recorder) now() int64 { return int64(wall.Now().Sub(r.epoch)) }

func (r *recorder) push(l layer) {
	idx := int32(-1)
	if len(r.spans) < cap(r.spans) {
		parent := int32(-1)
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1].idx
		}
		idx = int32(len(r.spans))
		r.spans = append(r.spans, span{ID: r.id, Parent: parent, Layer: l})
	} else {
		r.drops++
	}
	r.stack = append(r.stack, frame{l: l, start: r.now(), idx: idx})
}

func (r *recorder) pop() {
	end := r.now()
	n := len(r.stack) - 1
	f := r.stack[n]
	r.stack = r.stack[:n]
	d := end - f.start
	r.self[f.l] += d - f.child
	r.incl[f.l] += d
	r.count[f.l]++
	if n > 0 {
		r.stack[n-1].child += d
	}
	if h := r.hists[f.l]; h != nil {
		h.record(time.Duration(d))
	}
	if f.idx >= 0 {
		r.spans[f.idx].Start = f.start
		r.spans[f.idx].End = end
	}
}

// retag gives the open root span and everything recorded under it the
// transaction ID, known only once BeginTxn returned.
func (r *recorder) retag(id uint64) {
	r.id = id
	if len(r.stack) == 0 || r.stack[0].idx < 0 {
		return
	}
	for i := int(r.stack[0].idx); i < len(r.spans); i++ {
		r.spans[i].ID = id
	}
}

// reset clears the aggregates (not the epoch) before a traced window.
func (r *recorder) reset() {
	r.self, r.incl, r.count = [nLayers]int64{}, [nLayers]int64{}, [nLayers]uint64{}
	r.spans, r.drops = r.spans[:0], 0
	for _, h := range r.hists {
		if h != nil {
			*h = hist{}
		}
	}
}

// detachedTrace records the flat spans of detached rule callbacks,
// which run on the executor's worker goroutines, plus the waits the
// per-layer metrics derive from them.
type detachedTrace struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	drops   uint64
	incl    [nLayers]int64
	count   [nLayers]uint64
	started map[uint64]bool // firings (by event Seq) whose first attempt began
	wait    hist            // trigger time to first attempt
	lag     hist            // last composite constituent to rule start
}

func (d *detachedTrace) record(l layer, ruleTxn, link uint64, start, end time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.incl[l] += int64(end.Sub(start))
	d.count[l]++
	if len(d.spans) == cap(d.spans) {
		d.drops++
		return
	}
	d.spans = append(d.spans, span{ID: ruleTxn, Link: link, Parent: -1, Layer: l,
		Start: int64(start.Sub(d.epoch)), End: int64(end.Sub(d.epoch))})
}

// firstAttempt records the detached wait of a firing's first attempt.
func (d *detachedTrace) firstAttempt(in *event.Instance, start time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started[in.Seq] {
		return
	}
	d.started[in.Seq] = true
	d.wait.record(start.Sub(in.Time))
}

func (d *detachedTrace) composeLag(d2 time.Duration) {
	d.mu.Lock()
	d.lag.record(d2)
	d.mu.Unlock()
}

func (d *detachedTrace) reset() {
	d.mu.Lock()
	d.spans, d.drops = d.spans[:0], 0
	d.incl, d.count = [nLayers]int64{}, [nLayers]uint64{}
	d.started = make(map[uint64]bool)
	d.wait, d.lag = hist{}, hist{}
	d.mu.Unlock()
}

// lastPart is the latest constituent time of a composite instance
// (zero for a primitive one).
func lastPart(in *event.Instance) time.Time {
	var last time.Time
	for _, p := range in.Flatten() {
		if p != in && p.Time.After(last) {
			last = p.Time
		}
	}
	return last
}

// triggerTxn is the client transaction an event instance stems from:
// its own Txn, or for a cross-transaction composite the transaction
// of its last constituent.
func triggerTxn(in *event.Instance) uint64 {
	if in.Txn != 0 {
		return in.Txn
	}
	var id uint64
	var last time.Time
	for _, p := range in.Flatten() {
		if p.Txn != 0 && !p.Time.Before(last) {
			id, last = p.Txn, p.Time
		}
	}
	return id
}

// traceSink is the oodb.Sink installed with DB.SetSink around the
// engine's sentry dispatcher for the traced window: it times Emit for
// events raised on a client's goroutine.
type traceSink struct {
	b     *bench
	inner oodb.Sink
}

func (s traceSink) Wants(key string) bool { return s.inner.Wants(key) }

func (s traceSink) Emit(in *event.Instance) error {
	t, _ := in.Origin.(*txn.Txn)
	r := s.b.traced(t)
	if r == nil {
		return s.inner.Emit(in)
	}
	r.push(lEmit)
	err := s.inner.Emit(in)
	r.pop()
	return err
}

// timingFS is the fault.FS passed as the storage FS of the durable
// workloads. While tracing is on it counts and times every I/O call
// the pager and the WAL make; otherwise it only passes through.
type timingFS struct {
	inner fault.FS
	on    func() bool

	walWrite, dataWrite obs.Counter // bytes
	dataReads           obs.Counter // read calls on the data file
	syncs               obs.Counter
	syncNS              obs.Counter
	syncHist            syncHist
}

func (f *timingFS) OpenFile(path string) (fault.File, error) {
	file, err := f.inner.OpenFile(path)
	if err != nil {
		return nil, err
	}
	// The store keeps its pages in data.db; every other file is the WAL
	// (segments and the checkpoint master record).
	return &timedFile{File: file, fs: f, wal: filepath.Base(path) != "data.db"}, nil
}

func (f *timingFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }
func (f *timingFS) Remove(path string) error             { return f.inner.Remove(path) }

func (f *timingFS) reset() {
	f.walWrite.Reset()
	f.dataWrite.Reset()
	f.dataReads.Reset()
	f.syncs.Reset()
	f.syncNS.Reset()
	f.syncHist.reset()
}

type timedFile struct {
	fault.File
	fs  *timingFS
	wal bool
}

func (f *timedFile) wrote(n int) {
	if !f.fs.on() {
		return
	}
	if f.wal {
		f.fs.walWrite.Add(uint64(n))
	} else {
		f.fs.dataWrite.Add(uint64(n))
	}
}

func (f *timedFile) read() {
	if !f.wal && f.fs.on() {
		f.fs.dataReads.Inc()
	}
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.wrote(n)
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.wrote(n)
	return n, err
}

func (f *timedFile) Read(p []byte) (int, error) {
	f.read()
	return f.File.Read(p)
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	f.read()
	return f.File.ReadAt(p, off)
}

func (f *timedFile) Sync() error {
	if !f.fs.on() {
		return f.File.Sync()
	}
	start := wall.Now()
	err := f.File.Sync()
	d := wall.Now().Sub(start)
	f.fs.syncs.Inc()
	f.fs.syncNS.Add(uint64(d))
	f.fs.syncHist.record(d)
	return err
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, recs []*recorder, det *detachedTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type out struct {
		Span   string `json:"span"`
		ID     uint64 `json:"id"`
		Link   uint64 `json:"link,omitempty"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent string `json:"parent,omitempty"`
	}
	emit := func(src string, spans []span) error {
		for i, s := range spans {
			o := out{Span: fmt.Sprintf("%s/%d", src, i), ID: s.ID, Link: s.Link,
				Name: layerNames[s.Layer], Start: s.Start, End: s.End}
			if s.Parent >= 0 {
				o.Parent = fmt.Sprintf("%s/%d", src, s.Parent)
			}
			if err := enc.Encode(o); err != nil {
				return err
			}
		}
		return nil
	}
	for i, r := range recs {
		if err := emit(fmt.Sprintf("c%d", i), r.spans); err != nil {
			f.Close()
			return err
		}
	}
	if err := emit("detached", det.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
