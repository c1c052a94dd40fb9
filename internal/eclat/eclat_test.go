package eclat

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"closedrules/internal/dataset"
	"closedrules/internal/itemset"
	"closedrules/internal/miner"
	"closedrules/internal/naive"
	"closedrules/internal/testgen"
)

func classic(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.FromTransactions([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMineClassic(t *testing.T) {
	fam, err := Mine(classic(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Len() != 15 {
		t.Fatalf("|FI| = %d, want 15", fam.Len())
	}
	if s, _ := fam.Support(itemset.Of(1, 2)); s != 3 {
		t.Errorf("supp(BC) = %d, want 3", s)
	}
}

func TestMineValidation(t *testing.T) {
	if _, err := Mine(classic(t), 0); err == nil {
		t.Error("minSup 0 accepted")
	}
}

func TestMineEmpty(t *testing.T) {
	d, _ := dataset.FromTransactions(nil)
	fam, err := Mine(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Len() != 0 {
		t.Errorf("|FI| = %d", fam.Len())
	}
}

func TestMineAgainstNaiveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 60; iter++ {
		d := testgen.Random(r, 25, 10, 0.4)
		minSup := 1 + r.Intn(4)
		fam, err := Mine(d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.FrequentItemsets(d.Context(), minSup)
		if !fam.Equal(want) {
			t.Fatalf("iter %d: eclat %d itemsets, naive %d", iter, fam.Len(), want.Len())
		}
	}
}

// countdownCtx cancels itself after a fixed number of Err probes — a
// deterministic way to hit a miner mid-run regardless of machine speed.
type countdownCtx struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// mineFunc is MineContext or MineDiffsetContext.
type mineFunc func(context.Context, *dataset.Dataset, int) (*itemset.Family, error)

// workers returns a background context carrying a worker-count hint.
func workers(n int) context.Context {
	return miner.ContextWithParallelism(context.Background(), n)
}

// assertWorkerCountInvisible checks that All() returns the same
// itemsets, in the same order, with the same supports at a random
// worker count as on one inline worker.
func assertWorkerCountInvisible(t *testing.T, mine mineFunc, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for iter := 0; iter < 60; iter++ {
		d := testgen.Random(r, 30, 12, 0.4)
		minSup := 1 + r.Intn(4)
		n := 1 + r.Intn(6)
		one, err := mine(workers(1), d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		par, err := mine(workers(n), d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		sa, pa := one.All(), par.All()
		if len(sa) != len(pa) {
			t.Fatalf("iter %d (workers %d): %d itemsets, one worker %d", iter, n, len(pa), len(sa))
		}
		for i := range sa {
			if !sa[i].Items.Equal(pa[i].Items) || sa[i].Support != pa[i].Support {
				t.Fatalf("iter %d (workers %d): element %d differs", iter, n, i)
			}
		}
	}
}

// assertCancelledMidMine cancels a 4-worker run after 40 Err probes,
// far fewer than a full run needs.
func assertCancelledMidMine(t *testing.T, mine mineFunc, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	d := testgen.Correlated(r, 200, 6, 3, 0.2)
	ctx := &countdownCtx{Context: workers(4), n: 40}
	if _, err := mine(ctx, d, 2); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// assertEmptyAndValidation mines the empty dataset on 4 workers and
// rejects minSup 0 on 2.
func assertEmptyAndValidation(t *testing.T, mine mineFunc) {
	t.Helper()
	d, err := dataset.FromTransactions(nil)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := mine(workers(4), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Len() != 0 {
		t.Errorf("|FI| = %d on empty dataset", fam.Len())
	}
	if _, err := mine(workers(2), d, 0); err == nil {
		t.Error("minSup 0 accepted")
	}
}

func TestMineParallelByteIdentical(t *testing.T) {
	assertWorkerCountInvisible(t, MineContext, 151)
}

// TestMineParallelMatchesDiffsets cross-checks the representations:
// tidset Eclat on 3 workers against the diffset miner on one.
func TestMineParallelMatchesDiffsets(t *testing.T) {
	r := rand.New(rand.NewSource(157))
	for iter := 0; iter < 20; iter++ {
		d := testgen.Correlated(r, 60, 5, 3, 0.15)
		minSup := 2 + r.Intn(6)
		want, err := MineDiffsetContext(workers(1), d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MineContext(workers(3), d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("iter %d: 3 workers %d itemsets, diffset %d", iter, got.Len(), want.Len())
		}
	}
}

func TestMineParallelCancelledMidMine(t *testing.T) {
	assertCancelledMidMine(t, MineContext, 163)
}

func TestMineParallelEmptyAndValidation(t *testing.T) {
	assertEmptyAndValidation(t, MineContext)
}
