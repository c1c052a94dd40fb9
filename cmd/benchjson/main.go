// Command benchjson measures the closed-set mining engine and emits a
// machine-readable benchmark report, so the perf trajectory of the
// miners is tracked across PRs instead of remembered.
//
// Usage:
//
//	benchjson -scale small -label "quick check" -out /tmp/bench.json
//	benchjson -scale medium -append -out BENCH_closedmining.json
//	benchjson -scale medium -live-append -append -out BENCH_closedmining.json
//
// Every (workload × miner) cell records ns/op, allocs/op, bytes/op and
// the number of itemsets mined. With -append the new run is added to
// the runs already in -out (the tracked-baseline workflow); without it
// the file is overwritten with a single-run report. The emitted file is
// re-read and validated before the command exits 0, which is what the
// CI smoke step relies on: malformed output is a non-zero exit.
//
// -basis-e2e switches to the end-to-end dataset→basis campaign: each
// (miner × basis) pipeline is mined and built from scratch per
// iteration, so the cells (kind "basis") compare what serving a basis
// costs per miner — in particular the two-pass a-close path against
// the one-pass genclose path for the generator-requiring bases.
//
// -live-append switches to the incremental-maintenance campaign: each
// workload is replayed as a committed base plus -append-batches equal
// append batches (sized by -append-fracs), and every batch is both
// updated in place (internal/incremental) and re-mined from scratch
// with the -remine baseline. The two paths are checked equivalent on
// every batch; the emitted cells have kind "update" and miners
// "incremental" vs "remine", and the remine/incremental speedup per
// workload is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"closedrules/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		scaleF   = fs.String("scale", "small", "workload scale: small | medium | full")
		label    = fs.String("label", "", "run label recorded in the report (default: scale + date)")
		out      = fs.String("out", "BENCH_closedmining.json", "output report path")
		appendF  = fs.Bool("append", false, "append the run to an existing report instead of overwriting")
		closedF  = fs.String("closed", "close,charm,genclose", "comma-separated closed miners to bench")
		freqF    = fs.String("frequent", "eclat,declat", "comma-separated frequent miners to bench")
		minTime  = fs.Duration("mintime", 300*time.Millisecond, "minimum measuring time per cell")
		maxIters = fs.Int("maxiters", 20, "maximum iterations per cell")
		timeout  = fs.Duration("timeout", 0, "abort the whole campaign after this duration (0 = no limit)")

		basisE2E    = fs.Bool("basis-e2e", false, "run the end-to-end dataset→basis campaign (mine + build per iteration) instead of the miner sweep")
		basisMiners = fs.String("basis-miners", "aclose,genclose", "comma-separated closed miners pipelined in -basis-e2e (must satisfy the bases' requirements)")
		basisBases  = fs.String("basis-bases", "duquenne-guigues,generic", "comma-separated bases built in -basis-e2e")

		liveAppend  = fs.Bool("live-append", false, "run the live-append campaign (incremental update vs full re-mine) instead of the miner sweep")
		appendFracs = fs.String("append-fracs", "0.001,0.01", "comma-separated per-batch append sizes as fractions of each workload")
		appendN     = fs.Int("append-batches", 5, "append batches per live-append schedule")
		remineF     = fs.String("remine", "charm", "closed miner used as the full re-mine baseline in -live-append")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := bench.ParseScale(*scaleF)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *label == "" {
		*label = fmt.Sprintf("%s %s", *scaleF, time.Now().UTC().Format("2006-01-02"))
	}

	var newRun bench.Run
	if *basisE2E {
		newRun, err = bench.ExecuteBasis(ctx, bench.BasisConfig{
			Label:    *label,
			Scale:    scale,
			Miners:   splitList(*basisMiners),
			Bases:    splitList(*basisBases),
			MinTime:  *minTime,
			MaxIters: *maxIters,
		})
		if err != nil {
			return err
		}
	} else if *liveAppend {
		fracs, err := splitFloats(*appendFracs)
		if err != nil {
			return err
		}
		newRun, err = bench.ExecuteAppend(ctx, bench.AppendConfig{
			Label:       *label,
			Scale:       scale,
			Fractions:   fracs,
			Batches:     *appendN,
			RemineMiner: *remineF,
			MinTime:     *minTime,
			MaxIters:    *maxIters,
		})
		if err != nil {
			return err
		}
	} else {
		cfg := bench.RunConfig{
			Label:          *label,
			Scale:          scale,
			ClosedMiners:   splitList(*closedF),
			FrequentMiners: splitList(*freqF),
			MinTime:        *minTime,
			MaxIters:       *maxIters,
		}
		var skipped []string
		newRun, skipped, err = bench.Execute(ctx, cfg)
		if err != nil {
			return err
		}
		for _, s := range skipped {
			fmt.Fprintf(os.Stderr, "benchjson: miner %q not registered, skipped\n", s)
		}
	}
	newRun.Date = time.Now().UTC().Format(time.RFC3339)

	rep := bench.Report{Schema: bench.ReportSchema}
	if *appendF {
		if f, err := os.Open(*out); err == nil {
			prev, rerr := bench.ReadReport(f)
			f.Close()
			if rerr != nil {
				return fmt.Errorf("cannot append to %s: %w", *out, rerr)
			}
			rep = prev
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	rep.Runs = append(rep.Runs, newRun)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := bench.WriteReport(f, rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Re-read and validate what was written: a malformed report must be
	// a non-zero exit, never a silently committed artifact.
	rf, err := os.Open(*out)
	if err != nil {
		return err
	}
	defer rf.Close()
	if _, err := bench.ReadReport(rf); err != nil {
		return fmt.Errorf("emitted report is invalid: %w", err)
	}

	fmt.Fprintf(w, "wrote %s: %d run(s), %d result(s) in run %q\n",
		*out, len(rep.Runs), len(newRun.Results), newRun.Label)
	var pairs map[string]string
	if *liveAppend {
		pairs = map[string]string{"remine": "incremental"}
	}
	if *basisE2E {
		// The headline comparison: two-pass a-close vs one-pass genclose
		// on the same dataset→basis pipeline.
		pairs = map[string]string{"aclose": "genclose"}
	}
	for base, subject := range pairs {
		for workload, speedup := range bench.Speedups(newRun, base, subject) {
			fmt.Fprintf(w, "  %s: %s/%s speedup %.2fx\n", workload, subject, base, speedup)
		}
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad fraction %q: %w", p, err)
		}
		if f <= 0 || f >= 1 {
			return nil, fmt.Errorf("fraction %q outside (0,1)", p)
		}
		out = append(out, f)
	}
	return out, nil
}
