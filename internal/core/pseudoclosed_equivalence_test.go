package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"closedrules/internal/apriori"
	"closedrules/internal/charm"
	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	"closedrules/internal/galois"
	"closedrules/internal/itemset"
	"closedrules/internal/naive"
	"closedrules/internal/testgen"
)

// The equivalence harness that pins the FC-only NextClosure
// enumeration of PseudoClosedSets: its output (items, closures and
// supports, in order) must be identical to the frequent-itemset family
// scan it replaced, and its itemsets identical to the definitional
// naive.PseudoClosedContext, on the paper's worked example plus
// randomized and correlated datasets across several thresholds.

// familyScanPseudoClosed is the construction PseudoClosedSets
// replaced, kept as the oracle: it walks the complete frequent-itemset
// family in (size, lex) order and keeps every non-closed itemset that
// contains the closure of each pseudo-closed subset found before it.
func familyScanPseudoClosed(numTx int, fam *itemset.Family, fc *closedset.Set) ([]Pseudo, error) {
	var out []Pseudo
	consider := func(items itemset.Itemset) error {
		if fc.Contains(items) {
			return nil
		}
		for _, q := range out {
			if items.ContainsAll(q.Items) && !items.ContainsAll(q.Closure) {
				return nil
			}
		}
		cl, ok := fc.ClosureOf(items)
		if !ok {
			return fmt.Errorf("no closure for frequent itemset %v (FC incomplete?)", items)
		}
		out = append(out, Pseudo{Items: items, Closure: cl.Items, Support: cl.Support})
		return nil
	}
	if numTx > 0 && fc.Len() > 0 {
		if err := consider(itemset.Empty()); err != nil {
			return nil, err
		}
	}
	for _, f := range fam.All() {
		if err := consider(f.Items); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// renderPseudo serializes a pseudo-closed list, one "items → closure
// (support)" line per set, as the identity yardstick.
func renderPseudo(list []Pseudo) string {
	var b strings.Builder
	for _, p := range list {
		fmt.Fprintf(&b, "%v → %v (%d)\n", p.Items, p.Closure, p.Support)
	}
	return b.String()
}

// assertMatchesFamilyScan checks one (dataset, minSup) cell: FC from
// charm, the oracle's family from apriori.
func assertMatchesFamilyScan(t *testing.T, d *dataset.Dataset, minSup int) {
	t.Helper()
	fc, err := charm.Mine(d, minSup)
	if err != nil {
		t.Fatal(err)
	}
	fam, _, err := apriori.Mine(d, minSup)
	if err != nil {
		t.Fatal(err)
	}
	want, err := familyScanPseudoClosed(d.NumTransactions(), fam, fc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PseudoClosedSets(context.Background(), d.NumTransactions(), fc)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderPseudo(got), renderPseudo(want); g != w {
		t.Fatalf("minSup %d: pseudo-closed sets diverge from the family scan:\nnextclosure:\n%sfamily scan:\n%s", minSup, g, w)
	}
}

func TestPseudoClosedEquivalenceClassic(t *testing.T) {
	d, err := dataset.FromTransactions([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, minSup := range []int{1, 2, 3} {
		assertMatchesFamilyScan(t, d, minSup)
	}
}

// TestPseudoClosedEquivalenceRandom sweeps 12 randomized datasets × 3
// thresholds through the family-scan pin.
func TestPseudoClosedEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(307))
	for iter := 0; iter < 12; iter++ {
		d := testgen.Random(r, 30, 12, 0.4)
		for _, minSup := range []int{1, 2, 4} {
			assertMatchesFamilyScan(t, d, minSup)
		}
	}
}

// TestPseudoClosedEquivalenceCorrelated repeats the pin on correlated
// data, where exact rules between attribute values actually occur.
func TestPseudoClosedEquivalenceCorrelated(t *testing.T) {
	r := rand.New(rand.NewSource(311))
	for iter := 0; iter < 4; iter++ {
		d := testgen.Correlated(r, 80, 5, 3, 0.15)
		for _, minSup := range []int{2, 5, 9} {
			assertMatchesFamilyScan(t, d, minSup)
		}
	}
}

// randomWithUniversal is a random small context; with probability one
// half some item occurs in every transaction, so h(∅) ≠ ∅ and ∅ is
// pseudo-closed.
func randomWithUniversal(t *testing.T, r *rand.Rand) *dataset.Dataset {
	t.Helper()
	nObj, nItems := 1+r.Intn(12), 1+r.Intn(7)
	universal := -1
	if r.Intn(2) == 0 {
		universal = r.Intn(nItems)
	}
	tx := make([][]int, nObj)
	for o := range tx {
		for it := 0; it < nItems; it++ {
			if it == universal || r.Float64() < 0.45 {
				tx[o] = append(tx[o], it)
			}
		}
	}
	d, err := dataset.FromTransactions(tx)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPseudoClosedMatchesNaiveContext pins the itemsets to the
// definitional enumeration and the closures and supports to the Galois
// connection, on random small contexts that include ∅ pseudo-closed.
func TestPseudoClosedMatchesNaiveContext(t *testing.T) {
	r := rand.New(rand.NewSource(313))
	emptyPseudo := 0
	for iter := 0; iter < 400; iter++ {
		d := randomWithUniversal(t, r)
		c := d.Context()
		minSup := 1 + r.Intn(3)
		fc := naive.ClosedItemsets(c, minSup)
		got, err := PseudoClosedSets(context.Background(), c.NumObjects, fc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := naive.PseudoClosedContext(context.Background(), c, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d pseudo-closed %v, naive %d %v", iter, len(got), renderPseudo(got), len(want), want)
		}
		for i, p := range got {
			if !p.Items.Equal(want[i]) {
				t.Fatalf("iter %d: pseudo-closed #%d is %v, naive %v", iter, i, p.Items, want[i])
			}
			if cl := galois.Closure(c, p.Items); !p.Closure.Equal(cl) {
				t.Fatalf("iter %d: closure of %v is %v, want %v", iter, p.Items, p.Closure, cl)
			}
			if s := galois.Support(c, p.Items); p.Support != s {
				t.Fatalf("iter %d: support of %v is %d, want %d", iter, p.Items, p.Support, s)
			}
			if p.Items.Len() == 0 {
				emptyPseudo++
			}
		}
	}
	if emptyPseudo == 0 {
		t.Fatal("no context had ∅ pseudo-closed; the universal-item case went unexercised")
	}
}

// countdownCtx cancels itself after a fixed number of Err probes — a
// deterministic way to stop the enumeration mid-run regardless of
// machine speed. With n ≤ 0 it never cancels and only counts.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	n     int
	calls int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.n > 0 && c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

func TestPseudoClosedCancelledMidEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(317))
	d := testgen.Correlated(r, 200, 6, 3, 0.2)
	fc, err := charm.Mine(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The full enumeration checks ctx once per enumerated set, far more
	// than 40 times; the countdown cancels partway through.
	full := &countdownCtx{Context: context.Background()}
	if _, err := PseudoClosedSets(full, d.NumTransactions(), fc); err != nil {
		t.Fatal(err)
	}
	if full.calls <= 40 {
		t.Fatalf("full run checked ctx %d times; the countdown would not land mid-run", full.calls)
	}
	ctx := &countdownCtx{Context: context.Background(), n: 40}
	if _, err := PseudoClosedSets(ctx, d.NumTransactions(), fc); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ctx = &countdownCtx{Context: context.Background(), n: 40}
	if _, err := DuquenneGuigues(ctx, d.NumTransactions(), fc); err != context.Canceled {
		t.Fatalf("DuquenneGuigues err = %v, want context.Canceled", err)
	}
}
