// Command reachperf is the REACH benchmark. It runs one closed-loop
// workload against the system in-process, through the public core,
// oodb, query and rule-language API, with the engine, governor and
// checkpointer at their shipped defaults:
//
//	sensor-feed   rule-heavy and in memory: the paper's §6.1 power plant
//	              behind ~1,000 loaded rules
//	store-churn   storage-heavy and durable, larger than the buffer pool
//	alarm-fanout  detached rules contending on hot counters, durable
//
// BENCHMARK.json gates the first two. alarm-fanout runs the same way,
// but none of its figures repeated within a quarter across runs on a
// 2-CPU virtual machine, so it is not gated.
//
// Each client waits for its commit before it sends the next
// transaction, and runs an operation again in a new transaction when
// the system aborts it (deadlock victim, deadline abort, governor
// refusal), up to maxTries. The result line's attempted and failed
// count operations and detached firings; every aborted transaction
// shows in failed_ratio, txn.wedged and txn.deadlocks_per_ktxn.
//
// A run sets the system up several times (reporting the median set-up
// time), warms up, measures for --seconds, drains the detached work,
// checks the workload's output against what the clients were told
// committed, then plants one lost write and requires the same check
// to catch it.
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run measures an untraced window and then a traced one
// of the same length, and reports the per-layer metrics: spans taken
// around the calls into each module's public functions (and written
// to a file) plus deltas of the counters the program exports.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Usage:
//
//	reachperf --workload sensor-feed --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/clock"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	deadline time.Duration
	outDir   string
}

const (
	nClients = 2 // closed-loop client goroutines
	// A run sets the system up at least minSetups times and goes on,
	// up to maxSetups, until setupBudget is spent, so a fast set-up is
	// timed often enough for a steady median.
	minSetups   = 7
	maxSetups   = 15
	setupBudget = 2 * time.Second
	warmup      = 2 * time.Second
	// runLimit is the whole-run watchdog: past it the run dumps every
	// goroutine and fails.
	runLimit = 170 * time.Second
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("reachperf", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: sensor-feed, store-churn or alarm-fanout")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced window and reports per-layer metrics")
	fs.DurationVar(&cfg.deadline, "txn-deadline", 20*time.Millisecond,
		"client transaction deadline; on expiry the client aborts the transaction")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/reachperf", "directory for data files and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || cfg.deadline <= 0 {
		fmt.Fprintf(os.Stderr, "reachperf: bad arguments (workload %q; known: sensor-feed, store-churn, alarm-fanout)\n", cfg.workload)
		return 2
	}
	watchdog := wall.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "reachperf: watchdog: run exceeded %v; goroutines:\n", runLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort: the run is failing anyway
		os.Exit(3)
	})
	defer watchdog.Stop()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "reachperf:", err)
		return 1
	}
	b := newBench(cfg, wl)
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachperf:", err)
		return 1
	}
	info, _ := json.Marshal(map[string]any{"info": b.info})
	fmt.Println(string(info))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is recorded beside the result: what ran, on what, and how
// the output check went.
type runInfo struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	StreamHash  string    `json:"stream_hash"`
	Clients     int       `json:"clients"`
	TxnDeadline string    `json:"txn_deadline"`
	NumCPU      int       `json:"nproc"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	GoVersion   string    `json:"go_version"`
	DataFS      string    `json:"data_fs"`
	Flush       string    `json:"flush_policy"`
	SetupS      []float64 `json:"setup_s_each"`
	Check       string    `json:"check"`
	SelfCheck   string    `json:"selfcheck"`
	SpanFile    string    `json:"span_file,omitempty"`
	// SpansDropped counts spans past the span buffers' bound: they are
	// in the per-layer figures but not in the span file.
	SpansDropped uint64 `json:"spans_dropped,omitempty"`
}

func hostInfo(cfg config, dataDir string) runInfo {
	return runInfo{
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Clients:     nClients,
		TxnDeadline: cfg.deadline.String(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		DataFS:      fsType(dataDir),
	}
}

// wall is the benchmark's time source: it measures wall time by
// definition.
var wall clock.Clock = clock.NewReal()

// errCheck marks a failed output check: the run completes and reports
// correct=false instead of aborting.
var errCheck = errors.New("output check failed")

func spanPath(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
