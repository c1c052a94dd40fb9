package charm

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	"closedrules/internal/gen"
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
	fc, err := Mine(classic(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Len() != 6 {
		t.Fatalf("|FC| = %d, want 6: %v", fc.Len(), fc.All())
	}
	if s, ok := fc.Support(itemset.Of(0, 1, 2, 4)); !ok || s != 2 {
		t.Errorf("supp(ABCE) = %d,%v", s, ok)
	}
}

func TestMineValidation(t *testing.T) {
	if _, err := Mine(classic(t), 0); err == nil {
		t.Error("minSup 0 accepted")
	}
}

func TestMineUniversalItem(t *testing.T) {
	d, _ := dataset.FromTransactions([][]int{{0, 1}, {0, 2}, {0, 1, 2}})
	fc, err := Mine(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.ClosedItemsets(d.Context(), 1)
	if !fc.Equal(want) {
		t.Fatalf("FC mismatch: got %v want %v", fc.All(), want.All())
	}
}

func TestMineSingleItemUniverse(t *testing.T) {
	d, _ := dataset.FromTransactions([][]int{{0}, {0}, {}})
	fc, err := Mine(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.ClosedItemsets(d.Context(), 1)
	if !fc.Equal(want) {
		t.Fatalf("FC mismatch: got %v want %v", fc.All(), want.All())
	}
}

func TestMineAgainstNaiveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for iter := 0; iter < 120; iter++ {
		d := testgen.Random(r, 25, 10, 0.4)
		minSup := 1 + r.Intn(4)
		fc, err := Mine(d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.ClosedItemsets(d.Context(), minSup)
		if !fc.Equal(want) {
			t.Fatalf("iter %d (minSup %d): charm %d closed, naive %d\ncharm: %v\nnaive: %v",
				iter, minSup, fc.Len(), want.Len(), fc.All(), want.All())
		}
	}
}

func TestMineAgainstNaiveCorrelated(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	for iter := 0; iter < 15; iter++ {
		d := testgen.Correlated(r, 60, 5, 3, 0.15)
		minSup := 2 + r.Intn(8)
		fc, err := Mine(d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.ClosedItemsets(d.Context(), minSup)
		if !fc.Equal(want) {
			t.Fatalf("iter %d: charm %d, naive %d", iter, fc.Len(), want.Len())
		}
	}
}

// mineOn runs MineContext on the given number of workers.
func mineOn(t *testing.T, d *dataset.Dataset, minSup, workers int) *closedset.Set {
	t.Helper()
	fc, err := MineContext(miner.ContextWithParallelism(context.Background(), workers), d, minSup)
	if err != nil {
		t.Fatal(err)
	}
	return fc
}

// countdownCtx cancels itself after a fixed number of Err probes — a
// deterministic way to hit a miner mid-run, deep inside the IT-tree,
// regardless of machine speed.
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

// TestMineParallelMatchesSequentialClassic mines the paper's classic
// context at minSup 2 on 1, 2, 4 and 7 workers; each run must be the
// family of the one-worker inline run.
func TestMineParallelMatchesSequentialClassic(t *testing.T) {
	d := classic(t)
	seq := mineOn(t, d, 2, 1)
	for _, workers := range []int{1, 2, 4, 7} {
		if par := mineOn(t, d, 2, workers); !par.Equal(seq) {
			t.Fatalf("workers=%d: %d closed, one worker %d", workers, par.Len(), seq.Len())
		}
	}
}

// TestMineParallelByteIdentical checks that the worker count never
// shows in the output: All() returns the same closed itemsets, in the
// same order, with the same supports as the one-worker inline run.
func TestMineParallelByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	for iter := 0; iter < 60; iter++ {
		d := testgen.Random(r, 30, 12, 0.4)
		minSup := 1 + r.Intn(4)
		workers := 1 + r.Intn(6)
		sa, pa := mineOn(t, d, minSup, 1).All(), mineOn(t, d, minSup, workers).All()
		if len(sa) != len(pa) {
			t.Fatalf("iter %d (workers %d): %d closed, one worker %d", iter, workers, len(pa), len(sa))
		}
		for i := range sa {
			if !sa[i].Items.Equal(pa[i].Items) || sa[i].Support != pa[i].Support {
				t.Fatalf("iter %d (workers %d): element %d differs: %v/%d vs %v/%d",
					iter, workers, i, pa[i].Items, pa[i].Support, sa[i].Items, sa[i].Support)
			}
		}
	}
}

func TestMineParallelCorrelated(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	for iter := 0; iter < 10; iter++ {
		d := testgen.Correlated(r, 80, 5, 3, 0.15)
		minSup := 2 + r.Intn(8)
		fc := mineOn(t, d, minSup, 4)
		if want := naive.ClosedItemsets(d.Context(), minSup); !fc.Equal(want) {
			t.Fatalf("iter %d: 4 workers %d closed, naive %d", iter, fc.Len(), want.Len())
		}
	}
}

func TestMineParallelCancelledMidMine(t *testing.T) {
	r := rand.New(rand.NewSource(139))
	d := testgen.Correlated(r, 200, 6, 3, 0.2)
	// A full run needs far more than 40 Err probes; the countdown
	// cancels while workers are inside their subtrees.
	ctx := &countdownCtx{Context: miner.ContextWithParallelism(context.Background(), 4), n: 40}
	if _, err := MineContext(ctx, d, 2); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMineParallelCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(miner.ContextWithParallelism(context.Background(), 2))
	cancel()
	if _, err := MineContext(ctx, classic(t), 2); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMineParallelValidation(t *testing.T) {
	if _, err := MineContext(miner.ContextWithParallelism(context.Background(), 2), classic(t), 0); err == nil {
		t.Error("minSup 0 accepted")
	}
}

// sameFamily fails t unless got and want hold the same closed itemsets
// with the same supports, in the same order.
func sameFamily(t *testing.T, what string, got, want []closedset.Closed) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d closed, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Items.Equal(want[i].Items) || got[i].Support != want[i].Support {
			t.Fatalf("%s: element %d is %v/%d, want %v/%d",
				what, i, got[i].Items, got[i].Support, want[i].Items, want[i].Support)
		}
	}
}

// TestRegisteredMatchesMineContext checks the registry hand-off — the
// collector's list sorted once — against MineContext's keyed Set read
// back through All, element for element.
func TestRegisteredMatchesMineContext(t *testing.T) {
	m, err := miner.LookupClosed("charm")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(149))
	for iter := 0; iter < 60; iter++ {
		d := testgen.Random(r, 30, 12, 0.2+0.6*r.Float64())
		minSup := 1 + r.Intn(4)
		ctx := miner.ContextWithParallelism(context.Background(), 1+r.Intn(4))
		got, err := m.MineClosed(ctx, d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MineContext(ctx, d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		sameFamily(t, "registered", got, want.All())
	}
}

// TestRegisteredMatchesNaiveDeepDense runs the registered miner on
// dense shapes whose IT-tree is a dozen levels deep — MUSHROOMS* at
// minsup 0.1 and a 70%-dense random context — on 1, 2 and 4 workers
// against the brute-force oracle. Every depth of a class walk reuses
// its own tidset slab, so a slab shared across depths (or a parent
// overwritten before its subtree is done) shows here.
func TestRegisteredMatchesNaiveDeepDense(t *testing.T) {
	m, err := miner.LookupClosed("charm")
	if err != nil {
		t.Fatal(err)
	}
	mushroom, err := gen.Mushroom(gen.MushroomConfig{NumObjects: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name   string
		d      *dataset.Dataset
		minSup int
	}{
		{"mushroom", mushroom, mushroom.AbsoluteSupport(0.1)},
		{"random", testgen.Random(rand.New(rand.NewSource(151)), 60, 14, 0.7), 3},
	}
	for _, sh := range shapes {
		want := naive.ClosedItemsets(sh.d.Context(), sh.minSup).All()
		deepest := 0
		for _, c := range want {
			deepest = max(deepest, c.Items.Len())
		}
		if deepest < 8 {
			t.Fatalf("%s: deepest closed set has %d items; the shape is too shallow", sh.name, deepest)
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := m.MineClosed(miner.ContextWithParallelism(context.Background(), workers), sh.d, sh.minSup)
			if err != nil {
				t.Fatal(err)
			}
			sameFamily(t, fmt.Sprintf("%s, %d workers", sh.name, workers), got, want)
		}
	}
}
