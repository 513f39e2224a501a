package main

import (
	"math"

	"repro/internal/obs"
)

// The metric lists match BENCHMARK.json: --trace 0 reports exactly
// endToEndNames, --trace 1 exactly layerNamesOut. The user-visible
// metrics that did not repeat within a tenth over repeated runs on a
// 2-CPU machine (throughput, p99, reaction, failures) are reported
// with the per-layer ones, from the trace run's untraced window.
var endToEndNames = []string{"setup_s", "txn_p50_ms", "peak_heap_mb"}

// endToEnd computes the end-to-end metrics of an untraced window.
func (b *bench) endToEnd(ws *windowStats, setups []float64) map[string]metric {
	m := userMetrics(ws)
	m["setup_s"] = metric{median(setups), "s"}
	return pick(endToEndNames, m)
}

// userMetrics are what a user of the system sees in one untraced
// window. The throughput is the median over the window's slices, so
// one checkpoint or stall moves one slice, not the run's figure.
func userMetrics(ws *windowStats) map[string]metric {
	var tput []float64
	slice := ws.elapsed.Seconds() / nSlices
	for _, n := range ws.sliceN {
		tput = append(tput, float64(n)/slice)
	}
	return map[string]metric{
		"throughput_tps":  {median(tput), "1/s"},
		"txn_p50_ms":      {ms(ws.lat.quantile(0.50)), "ms"},
		"txn_p99_ms":      {ms(ws.lat.quantile(0.99)), "ms"},
		"peak_heap_mb":    {float64(ws.peakHeap) / (1 << 20), "MB"},
		"reaction_p50_ms": {ms(ws.react.quantile(0.50)), "ms"},
		"reaction_p99_ms": {ms(ws.react.quantile(0.99)), "ms"},
		"failed_ratio":    {ws.failedRatio(), "ratio"},
	}
}

// layerNamesOut lists the per-layer metrics, in BENCHMARK.json order.
var layerNamesOut = []string{
	"throughput_tps", "txn_p99_ms", "reaction_p50_ms", "reaction_p99_ms", "failed_ratio",
	"sentry.emit_us_per_txn", "sentry.checks_per_txn", "sentry.useful_ratio",
	"eca.dispatch_self_us_per_txn", "eca.immediate_us_per_txn", "eca.deferred_us_per_txn",
	"eca.fired_immediate_per_txn", "eca.fired_deferred_per_txn", "eca.fired_detached_per_txn",
	"eca.detached_wait_ms_p50", "eca.detached_wait_ms_p99", "eca.attempts_per_firing", "eca.deadletters",
	"algebra.compose_lag_ms_p50", "algebra.composites_per_txn", "algebra.semicomposed_end",
	"txn.begin_us_p99", "txn.commit_us_p50", "txn.commit_us_p99",
	"txn.lock_waits_per_txn", "txn.lock_wait_us_per_txn", "txn.deadlocks_per_ktxn", "txn.wedged",
	"oodb.self_us_per_txn",
	"storage.wal_bytes_per_txn", "storage.data_write_bytes_per_txn", "storage.write_amp",
	"storage.fsyncs_per_commit", "storage.fsync_us_p50", "storage.fsync_us_p99", "storage.fsync_us_per_txn",
	"storage.page_reads_per_txn", "storage.buffer_hit_ratio", "storage.group_commit_factor",
	"storage.checkpoints", "storage.checkpoint_ms_p99", "storage.reopen_ms", "storage.disk_bytes_per_user_byte",
	"query.select_us_p50",
	"governor.sheds", "governor.unhealthy_s",
	"rules.load_ms",
	"runtime.allocs_per_txn", "runtime.bytes_per_txn",
	"bench.trace_overhead_pct", "bench.span_coverage_pct",
}

// layerMetrics computes the per-layer metrics: spans and counter
// deltas from the traced window; runtime allocation, reaction and
// failure figures from the untraced one, which tracing would skew.
func (b *bench) layerMetrics(u, t *windowStats) map[string]metric {
	txns := float64(t.clients.attempted)
	per := func(v float64) float64 { return ratio(v, txns) }
	us := func(ns int64) float64 { return per(float64(ns) / 1e3) }
	d := func(get func(s *snapshot) uint64) float64 { return float64(get(&t.after) - get(&t.before)) }

	var begin, commit, sel hist
	for _, c := range b.clients {
		begin.merge(c.rec.hists[lBegin])
		commit.merge(c.rec.hists[lCommit])
		sel.merge(c.rec.hists[lSelect])
	}
	useful := d(func(s *snapshot) uint64 { return s.useful })
	checks := useful + d(func(s *snapshot) uint64 { return s.useless }) + d(func(s *snapshot) uint64 { return s.potential })
	fired := d(func(s *snapshot) uint64 { return s.engine.DetachedFired })
	retries := d(func(s *snapshot) uint64 { return s.retries })
	hits := d(func(s *snapshot) uint64 { return s.storage.BufferHits })
	misses := d(func(s *snapshot) uint64 { return s.storage.BufferMiss })
	syncs := d(func(s *snapshot) uint64 { return s.storage.WALSyncs })
	requests := d(func(s *snapshot) uint64 { return s.storage.GroupCommitRequests })

	var ckpt obs.HistogramSnapshot
	for i := range ckpt.Buckets {
		ckpt.Buckets[i] = t.after.ckpt[i] - t.before.ckpt[i]
		ckpt.Count += ckpt.Buckets[i]
	}

	var walW, dataW, reads, fsyncs, fsyncNS float64
	var fsyncHist hist
	if f := b.fs; f != nil {
		walW, dataW = float64(f.walWrite.Value()), float64(f.dataWrite.Value())
		reads, fsyncs, fsyncNS = float64(f.dataReads.Value()), float64(f.syncs.Value()), float64(f.syncNS.Value())
		fsyncHist = f.syncHist.snapshot()
	}
	uTxns := float64(u.clients.attempted)
	uTput := float64(u.clients.committed) / u.elapsed.Seconds()
	tTput := float64(t.clients.committed) / t.elapsed.Seconds()

	m := map[string]metric{
		"sentry.emit_us_per_txn": {us(t.incl[lEmit]), "us"},
		"sentry.checks_per_txn":  {per(checks), "count"},
		"sentry.useful_ratio":    {ratio(useful, checks), "ratio"},

		"eca.dispatch_self_us_per_txn": {us(t.self[lEmit]), "us"},
		"eca.immediate_us_per_txn":     {us(t.incl[lCondImmediate] + t.incl[lActionImmediate]), "us"},
		"eca.deferred_us_per_txn":      {us(t.incl[lCondDeferred] + t.incl[lActionDeferred]), "us"},
		"eca.fired_immediate_per_txn":  {per(d(func(s *snapshot) uint64 { return s.engine.ImmediateFired })), "count"},
		"eca.fired_deferred_per_txn":   {per(d(func(s *snapshot) uint64 { return s.engine.DeferredFired })), "count"},
		"eca.fired_detached_per_txn":   {per(fired), "count"},
		"eca.detached_wait_ms_p50":     {ms(b.det.wait.quantile(0.50)), "ms"},
		"eca.detached_wait_ms_p99":     {ms(b.det.wait.quantile(0.99)), "ms"},
		"eca.attempts_per_firing":      {ratio(fired+retries, fired), "count"},
		"eca.deadletters":              {d(func(s *snapshot) uint64 { return s.deadLetters }), "count"},

		"algebra.compose_lag_ms_p50": {ms(b.det.lag.quantile(0.50)), "ms"},
		"algebra.composites_per_txn": {per(d(func(s *snapshot) uint64 { return s.engine.CompositesDetected })), "count"},
		"algebra.semicomposed_end":   {float64(t.after.semi), "count"},

		"txn.begin_us_p99":         {begin.quantile(0.99) / 1e3, "us"},
		"txn.commit_us_p50":        {commit.quantile(0.50) / 1e3, "us"},
		"txn.commit_us_p99":        {commit.quantile(0.99) / 1e3, "us"},
		"txn.lock_waits_per_txn":   {per(d(func(s *snapshot) uint64 { return s.lockWaits })), "count"},
		"txn.lock_wait_us_per_txn": {per(d(func(s *snapshot) uint64 { return s.lockWaitNS }) / 1e3), "us"},
		"txn.deadlocks_per_ktxn":   {per(float64(t.clients.deadlocks) * 1000), "count"},
		"txn.wedged":               {float64(t.clients.wedged), "count"},

		"oodb.self_us_per_txn": {us(t.self[lOODB]), "us"},

		"storage.wal_bytes_per_txn":        {per(walW), "B"},
		"storage.data_write_bytes_per_txn": {per(dataW), "B"},
		"storage.write_amp":                {ratio(walW+dataW, float64(t.clients.userBytes)), "ratio"},
		"storage.fsyncs_per_commit":        {ratio(fsyncs, float64(t.clients.committed)), "count"},
		"storage.fsync_us_p50":             {fsyncHist.quantile(0.50) / 1e3, "us"},
		"storage.fsync_us_p99":             {fsyncHist.quantile(0.99) / 1e3, "us"},
		"storage.fsync_us_per_txn":         {per(fsyncNS / 1e3), "us"},
		"storage.page_reads_per_txn":       {per(reads), "count"},
		"storage.buffer_hit_ratio":         {ratio(hits, hits+misses), "ratio"},
		"storage.group_commit_factor":      {ratio(requests, syncs), "ratio"},
		"storage.checkpoints":              {d(func(s *snapshot) uint64 { return s.storage.Checkpoints }), "count"},
		"storage.checkpoint_ms_p99":        {ckpt.Quantile(0.99) / 1e6, "ms"},
		"storage.reopen_ms":                {float64(t.reopen) / 1e6, "ms"},
		"storage.disk_bytes_per_user_byte": {ratio(float64(t.diskBytes), float64(b.liveBytes)), "ratio"},

		"query.select_us_p50": {sel.quantile(0.50) / 1e3, "us"},

		"governor.sheds":       {d(func(s *snapshot) uint64 { return s.sheds }), "count"},
		"governor.unhealthy_s": {t.unhealthy.Seconds(), "s"},

		"rules.load_ms": {b.rulesMS, "ms"},

		"runtime.allocs_per_txn": {ratio(float64(u.after.mallocs-u.before.mallocs), uTxns), "count"},
		"runtime.bytes_per_txn":  {ratio(float64(u.after.allocBytes-u.before.allocBytes), uTxns), "B"},

		"bench.trace_overhead_pct": {100 * (1 - ratio(tTput, uTput)), "%"},
		"bench.span_coverage_pct":  {100 * ratio(float64(t.incl[lTxn]-t.self[lTxn]), float64(t.incl[lTxn])), "%"},
	}
	for k, v := range userMetrics(u) {
		m[k] = v
	}
	return pick(layerNamesOut, m)
}

// pick selects the named metrics. A percentile that landed on a
// failure (+Inf) is reported as -1, which JSON can carry.
func pick(names []string, m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		v := m[n]
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			v.Value = -1
		}
		out[n] = v
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns float64) float64 { return ns / 1e6 }
