package closedrules

import (
	"context"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"closedrules/internal/testgen"
)

// updateGolden rewrites the testdata/basis fixtures from the current
// implementation instead of comparing against them.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/basis golden files")

// namedClassic is the classic 5-object context with the paper's item
// names A–E.
func namedClassic(t *testing.T) *Dataset {
	t.Helper()
	named, err := classic(t).WithNames([]string{"A", "B", "C", "D", "E"})
	if err != nil {
		t.Fatal(err)
	}
	return named
}

func TestBasisProvenance(t *testing.T) {
	res, err := MineContext(context.Background(), classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := res.Basis(context.Background(), "Luxenburger", WithMinConfidence(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Basis != "luxenburger" {
		t.Errorf("Basis = %q, want luxenburger", rs.Basis)
	}
	if rs.MinConfidence != 0.5 || !rs.Reduced {
		t.Errorf("thresholds = (%v, %v), want (0.5, true)", rs.MinConfidence, rs.Reduced)
	}
	if rs.Len() != len(rs.Rules) || rs.Len() == 0 {
		t.Errorf("Len = %d, |Rules| = %d", rs.Len(), len(rs.Rules))
	}
}

func TestBasisOptionErrors(t *testing.T) {
	res, err := MineContext(context.Background(), classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := res.Basis(ctx, "luxenburger", WithMinConfidence(1.5)); err == nil {
		t.Error("WithMinConfidence(1.5) accepted")
	}
	// NaN passes every ordered comparison; the range check must still
	// reject it (it would otherwise poison filters and JSON encoding).
	if _, err := res.Basis(ctx, "luxenburger", WithMinConfidence(math.NaN())); err == nil {
		t.Error("WithMinConfidence(NaN) accepted")
	}
	if _, err := res.Basis(ctx, "luxenburger", nil); err == nil {
		t.Error("nil BasisOption accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := res.Basis(cancelled, "generic"); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestBasisGeneratorRequirement(t *testing.T) {
	// Charm does not track generators; the generator bases must refuse
	// with an error naming the requirement, the others must work.
	res, err := MineContext(context.Background(), classic(t),
		WithMinSupport(0.4), WithAlgorithm("charm"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"generic", "informative"} {
		_, err := res.Basis(ctx, name)
		if err == nil {
			t.Errorf("basis %q accepted without generators", name)
			continue
		}
		if !strings.Contains(err.Error(), "generators") || !strings.Contains(err.Error(), "charm") {
			t.Errorf("basis %q error does not explain the requirement: %v", name, err)
		}
	}
	for _, name := range []string{"duquenne-guigues", "luxenburger"} {
		if _, err := res.Basis(ctx, name); err != nil {
			t.Errorf("basis %q on charm result: %v", name, err)
		}
	}
}

// TestBasisCacheBounded asserts the per-Result basis memoization is
// keyed by (basis, variant) only: a caller — e.g. an HTTP client
// sweeping /rules?basis=...&minconf= — requesting many distinct
// confidence thresholds must not grow the cache per threshold.
func TestBasisCacheBounded(t *testing.T) {
	res, err := MineContext(context.Background(), classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i <= 100; i++ {
		c := float64(i) / 100
		if _, err := res.Basis(ctx, "luxenburger", WithMinConfidence(c)); err != nil {
			t.Fatal(err)
		}
	}
	entries := 0
	res.basisCache.Range(func(_, _ any) bool { entries++; return true })
	if entries != 1 {
		t.Errorf("basisCache has %d entries after a 101-threshold sweep of one basis, want 1", entries)
	}
}

// TestDuquenneGuiguesMinesNoFamily pins that the Duquenne–Guigues
// basis, and the derivation engine built on it, come from FC alone:
// the Result's lazily mined frequent-itemset family stays unmined.
func TestDuquenneGuiguesMinesNoFamily(t *testing.T) {
	res, err := MineContext(context.Background(), classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dg, err := res.Basis(ctx, "duquenne-guigues")
	if err != nil {
		t.Fatal(err)
	}
	if dg.Len() != 3 {
		t.Fatalf("|DG| = %d, want 3", dg.Len())
	}
	if _, err := res.DerivationEngine(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := res.PseudoClosedItemsets(); err != nil {
		t.Fatal(err)
	}
	if res.fam != nil {
		t.Fatal("building DG mined the frequent-itemset family")
	}
}

// TestBasisEquivalenceClassic asserts that the paper's worked example,
// stored and loaded back with LoadResult, answers exactly as the mined
// Result does.
func TestBasisEquivalenceClassic(t *testing.T) {
	d := namedClassic(t)
	res, err := MineContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm("genclose"))
	if err != nil {
		t.Fatal(err)
	}
	assertBasisEquivalence(t, res, d)
}

// TestBasisEquivalenceRandom repeats the mined-versus-loaded proof
// across random datasets, where empty bottoms and exact-rule edge cases
// show up that the classic example lacks.
func TestBasisEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 10; iter++ {
		d := testgen.Random(r, 25, 8, 0.45)
		res, err := MineContext(context.Background(), d,
			WithAbsoluteMinSupport(1+r.Intn(3)), WithAlgorithm("genclose"))
		if err != nil {
			t.Fatal(err)
		}
		assertBasisEquivalence(t, res, d)
	}
}

// assertBasisEquivalence checks that a Result loaded from res's saved
// closed itemsets answers exactly as res does: every built-in basis in
// both variants at several thresholds, the pseudo-closed itemsets, the
// derivation engine, supports and closures of every itemset over d's
// items, and a QueryService's Rule, Recommend and BasisRules answers.
// res must track generators, so that the generator bases are covered.
func assertBasisEquivalence(t *testing.T, res *Result, d *Dataset) {
	t.Helper()
	ctx := context.Background()
	loaded := reload(t, res)
	if loaded.NumTransactions() != res.NumTransactions() || loaded.HasGenerators() != res.HasGenerators() {
		t.Fatalf("loaded (|O| %d, generators %v), mined (|O| %d, generators %v)",
			loaded.NumTransactions(), loaded.HasGenerators(), res.NumTransactions(), res.HasGenerators())
	}
	minConfs := []float64{0, 0.5, 0.8}
	for _, name := range []string{"duquenne-guigues", "luxenburger", "generic", "informative"} {
		for _, reduced := range []bool{true, false} {
			for _, minConf := range minConfs {
				opts := []BasisOption{WithMinConfidence(minConf), WithReduction(reduced)}
				want, err := res.Basis(ctx, name, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.Basis(ctx, name, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s (reduced %v, conf %v): loaded differs:\nloaded:\n%smined:\n%s",
						name, reduced, minConf, FormatRules(got.Rules, d), FormatRules(want.Rules, d))
				}
			}
		}
	}

	wantPC, err := res.PseudoClosedItemsets()
	if err != nil {
		t.Fatal(err)
	}
	gotPC, err := loaded.PseudoClosedItemsets()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPC, wantPC) {
		t.Errorf("pseudo-closed itemsets: loaded %v, mined %v", gotPC, wantPC)
	}

	wantEng, err := res.DerivationEngine(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotEng, err := loaded.DerivationEngine(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantQS, err := NewQueryService(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gotQS, err := NewQueryService(loaded, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	// Every itemset over d's items, frequent or not.
	var subsets []Itemset
	for mask := 0; mask < 1<<d.NumItems(); mask++ {
		var x Itemset
		for i := 0; i < d.NumItems(); i++ {
			if mask&(1<<i) != 0 {
				x = append(x, i)
			}
		}
		subsets = append(subsets, x)
	}
	for _, x := range subsets {
		gs, gok := loaded.Support(x)
		ws, wok := res.Support(x)
		gc, _ := loaded.Closure(x)
		wc, _ := res.Closure(x)
		if gs != ws || gok != wok || !reflect.DeepEqual(gc, wc) {
			t.Errorf("%v: loaded (supp %d,%v, closure %v), mined (supp %d,%v, closure %v)",
				x, gs, gok, gc.Items, ws, wok, wc.Items)
		}
		got, gerr := gotQS.Recommend(ctx, x, 3)
		want, werr := wantQS.Recommend(ctx, x, 3)
		if !reflect.DeepEqual(got, want) || (gerr == nil) != (werr == nil) {
			t.Errorf("Recommend(%v): loaded %v (%v), mined %v (%v)", x, got, gerr, want, werr)
		}
		for _, y := range subsets {
			if x.Intersect(y).Len() > 0 {
				continue
			}
			gr, gerr := gotEng.Rule(x, y)
			wr, werr := wantEng.Rule(x, y)
			if !reflect.DeepEqual(gr, wr) || (gerr == nil) != (werr == nil) {
				t.Errorf("engine %v → %v: loaded %v (%v), mined %v (%v)", x, y, gr, gerr, wr, werr)
			}
			gr, gerr = gotQS.Rule(ctx, x, y)
			wr, werr = wantQS.Rule(ctx, x, y)
			if !reflect.DeepEqual(gr, wr) || (gerr == nil) != (werr == nil) {
				t.Errorf("Rule %v → %v: loaded %v (%v), mined %v (%v)", x, y, gr, gerr, wr, werr)
			}
		}
	}

	for _, name := range []string{"duquenne-guigues", "luxenburger", "generic", "informative"} {
		for _, minConf := range minConfs {
			got, err := gotQS.BasisRules(ctx, name, minConf)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wantQS.BasisRules(ctx, name, minConf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("BasisRules(%s, %v): loaded %v, mined %v", name, minConf, got.Rules, want.Rules)
			}
		}
	}
}

// goldenBasisCases enumerates the golden-file fixtures: every built-in
// basis run on the paper's worked example at minConf 0.5, plus the
// full (unreduced) variants.
var goldenBasisCases = []struct {
	file string
	name string
	opts []BasisOption
}{
	{"duquenne-guigues.golden", "duquenne-guigues", nil},
	{"generic.golden", "generic", nil},
	{"luxenburger.golden", "luxenburger", []BasisOption{WithMinConfidence(0.5)}},
	{"luxenburger-full.golden", "luxenburger", []BasisOption{WithMinConfidence(0.5), WithReduction(false)}},
	{"informative.golden", "informative", []BasisOption{WithMinConfidence(0.5)}},
	{"informative-full.golden", "informative", []BasisOption{WithMinConfidence(0.5), WithReduction(false)}},
}

// TestBasisGoldenFiles pins the exact rule lists (antecedent,
// consequent, support, confidence) of every built-in basis on the
// paper's worked example. Regenerate with
// `go test -run TestBasisGoldenFiles -update-golden`.
func TestBasisGoldenFiles(t *testing.T) {
	d := namedClassic(t)
	res, err := MineContext(context.Background(), d, WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenBasisCases {
		rs, err := res.Basis(context.Background(), tc.name, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		got := FormatRules(rs.Rules, d)
		path := filepath.Join("testdata", "basis", tc.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-golden to create)", tc.file, err)
		}
		if got != string(want) {
			t.Errorf("%s: basis %v diverged from golden file:\ngot:\n%swant:\n%s",
				tc.file, tc.name, got, want)
		}
	}
}
