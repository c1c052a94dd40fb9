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
	if _, err := res.Bases(math.NaN()); err == nil {
		t.Error("Bases(NaN) accepted")
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

// TestBasisEquivalenceClassic asserts byte-identical output between
// every deprecated basis method and its registry-era replacement on
// the paper's worked example.
func TestBasisEquivalenceClassic(t *testing.T) {
	d := namedClassic(t)
	res, err := MineContext(context.Background(), d, WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	assertBasisEquivalence(t, res, d)
}

// TestBasisEquivalenceRandom repeats the equivalence proof across
// random datasets, where empty bottoms and exact-rule edge cases show
// up that the classic example lacks.
func TestBasisEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 10; iter++ {
		d := testgen.Random(r, 25, 8, 0.45)
		res, err := MineContext(context.Background(), d, WithAbsoluteMinSupport(1+r.Intn(3)))
		if err != nil {
			t.Fatal(err)
		}
		assertBasisEquivalence(t, res, d)
	}
}

// assertBasisEquivalence checks that each legacy method and its
// Result.Basis replacement produce byte-identical rule lists.
func assertBasisEquivalence(t *testing.T, res *Result, d *Dataset) {
	t.Helper()
	ctx := context.Background()
	for _, minConf := range []float64{0, 0.5, 0.8} {
		legacy, err := res.Bases(minConf)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := res.Basis(ctx, "duquenne-guigues")
		if err != nil {
			t.Fatal(err)
		}
		assertSameRules(t, d, "Bases.Exact", legacy.Exact, exact.Rules)
		approx, err := res.Basis(ctx, "luxenburger", WithMinConfidence(minConf))
		if err != nil {
			t.Fatal(err)
		}
		assertSameRules(t, d, "Bases.Approximate", legacy.Approximate, approx.Rules)

		full, err := res.LuxenburgerFull(minConf)
		if err != nil {
			t.Fatal(err)
		}
		fullRS, err := res.Basis(ctx, "luxenburger", WithMinConfidence(minConf), WithReduction(false))
		if err != nil {
			t.Fatal(err)
		}
		assertSameRules(t, d, "LuxenburgerFull", full, fullRS.Rules)

		for _, reduced := range []bool{true, false} {
			ib, err := res.InformativeBasis(minConf, reduced)
			if err != nil {
				t.Fatal(err)
			}
			ibRS, err := res.Basis(ctx, "informative", WithMinConfidence(minConf), WithReduction(reduced))
			if err != nil {
				t.Fatal(err)
			}
			assertSameRules(t, d, "InformativeBasis", ib, ibRS.Rules)
		}
	}
	gb, err := res.GenericBasis()
	if err != nil {
		t.Fatal(err)
	}
	gbRS, err := res.Basis(ctx, "generic")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRules(t, d, "GenericBasis", gb, gbRS.Rules)
}

// assertSameRules requires two rule lists to be deeply equal and to
// render byte-identically.
func assertSameRules(t *testing.T, d *Dataset, label string, legacy, registry []Rule) {
	t.Helper()
	if !reflect.DeepEqual(legacy, registry) {
		t.Errorf("%s: legacy and registry rules differ:\nlegacy:\n%sregistry:\n%s",
			label, FormatRules(legacy, d), FormatRules(registry, d))
		return
	}
	if FormatRules(legacy, d) != FormatRules(registry, d) {
		t.Errorf("%s: rendered output differs", label)
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
