package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"closedrules"
)

// arserveBin is the server binary the tests run, built once by TestMain.
var arserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	arserveBin = filepath.Join(dir, "arserve")
	if out, err := exec.Command("go", "build", "-o", arserveBin, "closedrules/cmd/arserve").CombinedOutput(); err != nil {
		panic("building arserve: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortRunsEmitEveryMetric runs every workload of BENCHMARK.json
// with a one-second window, untraced and traced, and checks that the
// last line is a correct result carrying exactly the declared metrics,
// each with its declared unit and a non-zero value where the metric is
// end-to-end.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--arserve", arserveBin, "--work", t.TempDir()}
				if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("metric %s = %v, want a positive figure", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestGateFailsOnCorruptedReference serves the sparse workload against
// references mined from a corrupted copy of the data: the correctness
// gate must count the disagreeing answers and fail the run.
func TestGateFailsOnCorruptedReference(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	plan, _, _, err := sparsePlan(ctx, 5, dir, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the first transactions: every support shifts.
	tx := plan.refs[0].ServedResult().Dataset().Transactions()
	raw := make([][]int, 0, len(tx))
	for _, row := range tx[500:] {
		raw = append(raw, row)
	}
	d, err := closedrules.NewDataset(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := closedrules.MineContext(ctx, d, closedrules.WithMinSupport(sparseMinSup))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := closedrules.NewQueryService(res, minConf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.refs {
		plan.refs[i] = bad
	}
	out, err := servePhase(ctx, &options{arserve: arserveBin}, plan, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 || out.gateErr == nil {
		t.Fatalf("gate passed %d answers against a corrupted reference", out.attempted)
	}
	t.Logf("gate failed %d of %d: %v", out.failed, out.attempted, out.gateErr)
}

// TestDigestSeesCorruption checks the build-sparse gate's fingerprint:
// equal for two miners on the same data, different on other data.
func TestDigestSeesCorruption(t *testing.T) {
	ctx := context.Background()
	lines, err := sparseDat(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildPipeline(ctx, joinDat(lines), sparseMinSup, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := referenceService(ctx, joinDat(lines), sparseMinSup)
	if err != nil {
		t.Fatal(err)
	}
	corrupt, err := referenceService(ctx, joinDat(lines[100:]), sparseMinSup)
	if err != nil {
		t.Fatal(err)
	}
	got, err := digest(ctx, b.qs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := digest(ctx, oracle)
	other, _ := digest(ctx, corrupt)
	if got != want {
		t.Errorf("close and genclose snapshots differ: %s vs %s", got, want)
	}
	if got == other {
		t.Errorf("digest does not change when the data does")
	}
}
