// Command perfbench is the repository's end-to-end benchmark: it turns
// generated datasets into served snapshots of the frequent closed
// itemsets and the Duquenne–Guigues and Luxenburger bases, and times
// both the build and the queries against it.
//
// Usage (from the repository root, through the launcher that builds
// arserve and this program first):
//
//	bash perfbench/run.sh --workload build-sparse --seed 1 --seconds 15 --trace 0
//
// Each run prints one JSON line describing the run (workload sizes,
// offered rate, environment) and, as its last line, the result:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer split,
// computed from spans the benchmark records around each public call it
// makes. Spans are written to <work>/trace-<workload>-<seed>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Workload sizes. They are fixed here rather than settable, so that
// two runs with one seed always measure the same inputs.
const (
	sparseTx     = 10000 // QUEST T10I4D10K
	sparseItems  = 500
	sparseMinSup = 0.005
	denseObjects = 8124 // MUSHROOMS*
	denseMinSup  = 0.1
	minConf      = 0.5 // the served reduced Luxenburger basis

	// appendFrac sizes one appended batch relative to the base data:
	// small enough for the incremental refresh path, large enough to
	// create new closed sets.
	appendFrac = 0.005
	// appendEvery leaves a quiet window after each refresh, in which
	// answers are checked against one reference.
	appendEvery  = 2 * time.Second
	refreshEvery = "100ms"

	// Offered request rates, well below saturation on two cores so
	// that latency reflects service time, not a queue, even while the
	// host runs twice as slow.
	denseRate  = 300.0
	sparseRate = 500.0

	// Latency limits at p99 for the serve workloads: a run whose p99
	// exceeds its limit still reports the figure, and the run info
	// records whether the limit held.
	denseP99LimitMs  = 50.0
	sparseP99LimitMs = 20.0

	recommendK    = 5
	warmup        = time.Second
	setupRepeats  = 3
	reloadRepeats = 3 // forced full reloads on serve-dense-cold, for refresh_lag_s
)

// workloadInfo is the run description printed before the result.
type workloadInfo struct {
	Name         string  `json:"name"`
	Why          string  `json:"why"`
	Dataset      string  `json:"dataset"`
	Transactions int     `json:"transactions"`
	Items        int     `json:"items,omitempty"`
	MinSupport   float64 `json:"min_support"`
	MinConf      float64 `json:"min_confidence"`
	RateRPS      float64 `json:"offered_rps,omitempty"`
	P99LimitMs   float64 `json:"p99_limit_ms,omitempty"`
	AppendTx     int     `json:"append_batch_tx,omitempty"`
	AppendEvery  string  `json:"append_every,omitempty"`
}

var workloads = map[string]workloadInfo{
	"build-sparse": {
		Name:         "build-sparse",
		Why:          "sparse data, |FI|≈|FC|: mine, hidden FI pass and lattice all weigh; no request path, so a serving change reads as no change",
		Dataset:      "QUEST T10I4",
		Transactions: sparseTx, Items: sparseItems, MinSupport: sparseMinSup, MinConf: minConf,
		AppendTx: int(sparseTx * appendFrac),
	},
	"serve-dense-cold": {
		Name:         "serve-dense-cold",
		Why:          "dense data, ~10k closed sets: lookups scan FC and filter every rule, the recommend cache misses, setup is the dense build",
		Dataset:      "MUSHROOMS*",
		Transactions: denseObjects, MinSupport: denseMinSup, MinConf: minConf,
		RateRPS: denseRate, P99LimitMs: denseP99LimitMs,
	},
	"serve-sparse-append": {
		Name:         "serve-sparse-append",
		Why:          "hot sparse keys hit the cache, so HTTP and server CPU dominate, while appends run incremental update plus Swap beside the reads",
		Dataset:      "QUEST T10I4",
		Transactions: sparseTx, Items: sparseItems, MinSupport: sparseMinSup, MinConf: minConf,
		RateRPS: sparseRate, P99LimitMs: sparseP99LimitMs,
		AppendTx: int(sparseTx * appendFrac), AppendEvery: appendEvery.String(),
	},
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	arserve  string // path of the arserve binary
	work     string // scratch directory for data files and traces
}

// runEnv is recorded with every run.
type runEnv struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload runner measured.
type outcome struct {
	attempted, failed int
	gateErr           error // first correctness-gate failure, if any
	e2e               map[string]float64
	layers            map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail counts one failed operation and keeps the first reason.
func (o *outcome) fail(err error) {
	o.failed++
	if o.gateErr == nil {
		o.gateErr = err
	}
}

func main() {
	go watchMemory(os.Stderr)
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: build-sparse, serve-dense-cold or serve-sparse-append")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated data, queries and arrival schedule")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = report the per-layer split instead of the end-to-end metrics")
	fs.StringVar(&o.arserve, "arserve", ".bench_build/arserve", "arserve binary built from this checkout")
	fs.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for data files and traces")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown -workload %q", o.workload)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	info := struct {
		Workload workloadInfo `json:"workload"`
		Env      runEnv       `json:"env"`
	}{workloads[o.workload], runEnv{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
	}}
	b, _ := json.Marshal(info) // plain structs always marshal
	fmt.Fprintln(stdout, string(b))

	res := result{Correct: out.failed == 0 && out.gateErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	vals := out.e2e
	if o.trace {
		vals = out.layers
	}
	for name, v := range vals {
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	b, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: correctness gate failed (%d of %d): %v\n", out.failed, out.attempted, out.gateErr)
		return 1
	}
	return 0
}

// runWorkload prepares the scratch directory and runs one workload.
func runWorkload(ctx context.Context, o *options) (*outcome, error) {
	if _, err := os.Stat(o.arserve); err != nil {
		return nil, fmt.Errorf("arserve binary: %w", err)
	}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer(o.trace)
	var (
		out *outcome
		err error
	)
	switch o.workload {
	case "build-sparse":
		out, err = runBuildSparse(ctx, o, dir, tr)
	case "serve-dense-cold":
		out, err = runServeDense(ctx, o, dir, tr)
	default: // serve-sparse-append; parseFlags admits no other name
		out, err = runServeSparse(ctx, o, dir, tr, o.seconds)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.write(filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return out, nil
}
