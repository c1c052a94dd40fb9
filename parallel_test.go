package closedrules

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"closedrules/internal/naive"
	"closedrules/internal/testgen"
)

// parallelismWorkload is one dataset and absolute threshold of the
// parallelism table.
type parallelismWorkload struct {
	name   string
	d      *Dataset
	minSup int
}

// generatorWorkloads are the three generated data regimes.
func generatorWorkloads(t *testing.T) []parallelismWorkload {
	t.Helper()
	quest, err := GenerateQuest(QuestT10I4(400, 60, 11))
	if err != nil {
		t.Fatal(err)
	}
	census, err := GenerateCensus(CensusC20(300, 11))
	if err != nil {
		t.Fatal(err)
	}
	mush, err := GenerateMushroom(MushroomConfig{NumObjects: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return []parallelismWorkload{
		{"quest", quest, 8},     // 0.02 of 400
		{"census", census, 150}, // 0.5 of 300
		{"mushroom", mush, 90},  // 0.3 of 300
	}
}

// parallelismWorkloads are the paper's classic context at every
// threshold and randomized sparse and correlated internal/testgen
// contexts.
func parallelismWorkloads(t *testing.T) []parallelismWorkload {
	t.Helper()
	var ws []parallelismWorkload
	for _, minSup := range []int{1, 2, 3} {
		ws = append(ws, parallelismWorkload{fmt.Sprintf("classic/%d", minSup), classic(t), minSup})
	}
	r := rand.New(rand.NewSource(131))
	for i := 0; i < 12; i++ {
		ws = append(ws, parallelismWorkload{fmt.Sprintf("random/%d", i), testgen.Random(r, 30, 12, 0.4), 1 + r.Intn(4)})
	}
	for _, seed := range []int64{157, 173} {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			d := testgen.Correlated(r, 60, 5, 3, 0.15)
			ws = append(ws, parallelismWorkload{fmt.Sprintf("correlated%d/%d", seed, i), d, 2 + r.Intn(6)})
		}
	}
	return ws
}

// renderClosed and renderCounted print itemsets with their supports,
// one per line, in the order given: the byte-identity yardstick of the
// table below.
func renderClosed(list []ClosedItemset) string {
	var b strings.Builder
	for _, c := range list {
		fmt.Fprintf(&b, "%v %d\n", c.Items, c.Support)
	}
	return b.String()
}

func renderCounted(list []CountedItemset) string {
	var b strings.Builder
	for _, c := range list {
		fmt.Fprintf(&b, "%v %d\n", c.Items, c.Support)
	}
	return b.String()
}

// TestParallelMinersMatchSequentialOnGeneratorWorkloads cross-checks
// the class-parallel miners against the sequential close and apriori
// on each generated data regime, at every parallelism.
func TestParallelMinersMatchSequentialOnGeneratorWorkloads(t *testing.T) {
	assertMatchOraclesAtEveryParallelism(t, generatorWorkloads(t))
}

// TestParallelMinersMatchOraclesAtEveryParallelism runs the same check
// on the classic, random and correlated workloads.
func TestParallelMinersMatchOraclesAtEveryParallelism(t *testing.T) {
	assertMatchOraclesAtEveryParallelism(t, parallelismWorkloads(t))
}

// assertMatchOraclesAtEveryParallelism runs the class-parallel miners
// — charm, eclat and declat — at WithParallelism 1, 2, 3 and 8 and
// unset (GOMAXPROCS) on every workload. Each run must be byte-identical
// (same itemsets, same supports, same order) to an independent oracle:
// close for the closed sets, apriori for the frequent itemsets, and
// apriori itself to the internal/naive brute force.
func assertMatchOraclesAtEveryParallelism(t *testing.T, ws []parallelismWorkload) {
	t.Helper()
	ctx := context.Background()
	for _, w := range ws {
		abs := WithAbsoluteMinSupport(w.minSup)
		ref, err := MineContext(ctx, w.d, abs, WithAlgorithm("close"))
		if err != nil {
			t.Fatalf("%s close: %v", w.name, err)
		}
		wantClosed := renderClosed(ref.ClosedItemsets())
		fi, err := MineFrequentContext(ctx, w.d, abs, WithAlgorithm("apriori"))
		if err != nil {
			t.Fatalf("%s apriori: %v", w.name, err)
		}
		wantFrequent := renderCounted(fi)
		if brute := renderCounted(naive.FrequentItemsets(w.d.Context(), w.minSup).All()); brute != wantFrequent {
			t.Fatalf("%s: apriori diverges from naive:\napriori:\n%snaive:\n%s", w.name, wantFrequent, brute)
		}
		for _, n := range []int{0, 1, 2, 3, 8} {
			opts := []MineOption{abs}
			if n > 0 {
				opts = append(opts, WithParallelism(n))
			}
			res, err := MineContext(ctx, w.d, append(opts, WithAlgorithm("charm"))...)
			if err != nil {
				t.Fatalf("%s charm/%d: %v", w.name, n, err)
			}
			if got := renderClosed(res.ClosedItemsets()); got != wantClosed {
				t.Fatalf("%s: charm at parallelism %d diverges from close:\ncharm:\n%sclose:\n%s", w.name, n, got, wantClosed)
			}
			for _, algo := range []string{"eclat", "declat"} {
				fi, err := MineFrequentContext(ctx, w.d, append(opts, WithAlgorithm(algo))...)
				if err != nil {
					t.Fatalf("%s %s/%d: %v", w.name, algo, n, err)
				}
				if got := renderCounted(fi); got != wantFrequent {
					t.Fatalf("%s: %s at parallelism %d diverges from apriori:\n%s:\n%sapriori:\n%s", w.name, algo, n, algo, got, wantFrequent)
				}
			}
		}
	}
}

// TestParallelMinersHonorDeadlineMidMine gives the class-parallel
// miners a deadline that expires mid-run on a larger workload and
// expects the deadline error, not a result.
func TestParallelMinersHonorDeadlineMidMine(t *testing.T) {
	ds, err := GenerateQuest(QuestT20I6(4000, 300, 13))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the context cache so the deadline is spent inside the mine,
	// not building the bitset view.
	if _, err := MineContext(context.Background(), ds, WithAbsoluteMinSupport(ds.NumTransactions()/2), WithAlgorithm("charm")); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"charm", "eclat", "declat"} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		var mineErr error
		if algo == "charm" {
			_, mineErr = MineContext(ctx, ds, WithMinSupport(0.002), WithAlgorithm(algo), WithParallelism(4))
		} else {
			_, mineErr = MineFrequentContext(ctx, ds, WithMinSupport(0.002), WithAlgorithm(algo), WithParallelism(4))
		}
		cancel()
		if mineErr != context.DeadlineExceeded {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", algo, mineErr)
		}
	}
}

// TestWithParallelismValidation covers the option's contract.
func TestWithParallelismValidation(t *testing.T) {
	d := classic(t)
	if _, err := MineContext(context.Background(), d, WithMinSupport(0.4), WithParallelism(0)); err == nil {
		t.Error("WithParallelism(0) accepted")
	}
	// More workers than first-level classes is fine on the default
	// miner, and the hint is harmless on one that ignores it.
	for _, algo := range []string{"charm", "close"} {
		if _, err := MineContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm(algo), WithParallelism(8)); err != nil {
			t.Errorf("%s with parallelism hint: %v", algo, err)
		}
	}
}
