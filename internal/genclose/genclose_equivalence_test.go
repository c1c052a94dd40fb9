package genclose_test

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"closedrules/internal/aclose"
	"closedrules/internal/charm"
	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	"closedrules/internal/genclose"
	"closedrules/internal/miner"
	"closedrules/internal/testgen"
)

// The property/equivalence harness that pins genclose to the existing
// miners: its closed sets and supports must be byte-identical to
// charm's (the independent closed-set oracle) and its generator sets
// must be set-identical to a-close's (the generator-tracking oracle),
// on the paper's worked example plus randomized datasets across
// several thresholds.

func classicEq(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.FromTransactions([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// render serializes a closed-set family in the library's stable text
// format — the byte-identity yardstick (canonical order, supports and
// generators included).
func render(t *testing.T, s *closedset.Set) string {
	t.Helper()
	var buf bytes.Buffer
	if err := closedset.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// renderNoGens is render with the generator columns dropped, for
// comparisons against miners that do not track them.
func renderNoGens(t *testing.T, s *closedset.Set) string {
	t.Helper()
	bare := closedset.New()
	s.Each(func(c closedset.Closed) bool {
		bare.Add(c.Items, c.Support)
		return true
	})
	return render(t, bare)
}

// assertPinned checks one (dataset, minSup) cell against both oracles.
func assertPinned(t *testing.T, d *dataset.Dataset, minSup int) {
	t.Helper()
	got, err := genclose.Mine(d, minSup)
	if err != nil {
		t.Fatal(err)
	}

	// Closed sets + supports: byte-identical to charm.
	oracle, err := charm.Mine(d, minSup)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderNoGens(t, got), renderNoGens(t, oracle); g != w {
		t.Fatalf("minSup %d: closed sets diverge from charm:\ngenclose:\n%scharm:\n%s", minSup, g, w)
	}

	// Generators: set-identical to a-close per closed itemset.
	ref, _, err := aclose.Mine(d, minSup)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ref.All() {
		gc, ok := got.Get(c.Items)
		if !ok {
			t.Fatalf("minSup %d: closed %v missing from genclose", minSup, c.Items)
		}
		if len(gc.Generators) != len(c.Generators) {
			t.Fatalf("minSup %d: %v has %d generators %v, a-close has %d %v",
				minSup, c.Items, len(gc.Generators), gc.Generators, len(c.Generators), c.Generators)
		}
		for _, g := range c.Generators {
			found := false
			for _, h := range gc.Generators {
				if h.Equal(g) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("minSup %d: %v: generator %v missing (got %v)", minSup, c.Items, g, gc.Generators)
			}
		}
	}
}

func TestEquivalenceClassic(t *testing.T) {
	d := classicEq(t)
	for _, minSup := range []int{1, 2, 3} {
		assertPinned(t, d, minSup)
	}
}

// TestEquivalenceRandom sweeps 12 randomized datasets × 3 thresholds
// through the full oracle pin.
func TestEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	for iter := 0; iter < 12; iter++ {
		d := testgen.Random(r, 30, 12, 0.4)
		for _, minSup := range []int{1, 2, 4} {
			assertPinned(t, d, minSup)
		}
	}
}

// TestEquivalenceCorrelated repeats the pin on correlated data, where
// equal-tidset merges (shared closures) actually occur.
func TestEquivalenceCorrelated(t *testing.T) {
	r := rand.New(rand.NewSource(223))
	for iter := 0; iter < 4; iter++ {
		d := testgen.Correlated(r, 80, 5, 3, 0.15)
		for _, minSup := range []int{2, 5, 9} {
			assertPinned(t, d, minSup)
		}
	}
}

// countdownCtx cancels itself after a fixed number of Err probes — a
// deterministic way to hit the miner mid-run, deep inside a level,
// regardless of machine speed (the charm/eclat pattern).
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

func TestCancelledMidMine(t *testing.T) {
	r := rand.New(rand.NewSource(229))
	d := testgen.Correlated(r, 200, 6, 3, 0.2)
	// A full run needs far more than 40 Err probes (one per candidate);
	// the countdown cancels mid-level.
	ctx := &countdownCtx{Context: context.Background(), n: 40}
	if _, err := genclose.MineContext(ctx, d, 2); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelCancelledMidMine: genclose mines on the calling goroutine
// and ignores a worker-count hint, which must not disturb its
// per-candidate cancellation.
func TestParallelCancelledMidMine(t *testing.T) {
	r := rand.New(rand.NewSource(233))
	d := testgen.Correlated(r, 200, 6, 3, 0.2)
	ctx := &countdownCtx{Context: miner.ContextWithParallelism(context.Background(), 4), n: 40}
	if _, err := genclose.MineContext(ctx, d, 2); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
