package bench

import (
	"context"
	"strings"
	"testing"
	"time"
)

func smallRun(t *testing.T) Run {
	t.Helper()
	run, skipped, err := Execute(context.Background(), RunConfig{
		Label:          "test",
		Scale:          Small,
		ClosedMiners:   []string{"close", "charm", "nosuchminer"},
		FrequentMiners: []string{"eclat", "declat"},
		MinTime:        time.Millisecond,
		MaxIters:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 4 { // one unknown name per workload
		t.Errorf("skipped = %v, want nosuchminer×4", skipped)
	}
	return run
}

func TestExecuteMeasuresEveryCell(t *testing.T) {
	run := smallRun(t)
	// 4 workloads × (2 closed + 2 frequent) resolvable miners.
	if len(run.Results) != 16 {
		t.Fatalf("%d results, want 16", len(run.Results))
	}
	for _, r := range run.Results {
		if r.NsPerOp <= 0 || r.Iterations < 1 || r.Sets < 1 {
			t.Errorf("unmeasured cell: %+v", r)
		}
	}
	// Miners of one kind must mine the same number of itemsets on
	// every workload.
	counts := map[string]int{}
	for _, r := range run.Results {
		counts[r.Workload+"/"+r.Miner] = r.Sets
	}
	for _, r := range run.Results {
		switch r.Miner {
		case "charm":
			if counts[r.Workload+"/close"] != r.Sets {
				t.Errorf("%s: charm %d sets, close %d", r.Workload, r.Sets, counts[r.Workload+"/close"])
			}
		case "declat":
			if counts[r.Workload+"/eclat"] != r.Sets {
				t.Errorf("%s: declat %d sets, eclat %d", r.Workload, r.Sets, counts[r.Workload+"/eclat"])
			}
		}
	}
	if len(Speedups(run, "close", "charm")) != 4 {
		t.Error("Speedups did not pair all workloads")
	}
}

func TestReportRoundTripAndValidation(t *testing.T) {
	run := smallRun(t)
	rep := Report{Schema: ReportSchema, Runs: []Run{run}}
	var sb strings.Builder
	if err := WriteReport(&sb, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 || len(got.Runs[0].Results) != len(run.Results) {
		t.Fatalf("round trip lost results")
	}

	for _, bad := range []Report{
		{},
		{Schema: ReportSchema},
		{Schema: ReportSchema, Runs: []Run{{Label: "x", GOMAXPROCS: 1}}},
		{Schema: ReportSchema, Runs: []Run{{Label: "x", GOMAXPROCS: 1,
			Results: []MinerResult{{Workload: "w", Miner: "m", Kind: "bogus", NsPerOp: 1, Iterations: 1, Sets: 1}}}}},
	} {
		if err := Validate(bad); err == nil {
			t.Errorf("invalid report accepted: %+v", bad)
		}
	}
	if _, err := ReadReport(strings.NewReader("{not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestExecuteHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Execute(ctx, RunConfig{
		Label:        "cancelled",
		Scale:        Small,
		ClosedMiners: []string{"charm"},
	})
	if err == nil {
		t.Fatal("cancelled campaign succeeded")
	}
}
