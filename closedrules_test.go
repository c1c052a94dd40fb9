package closedrules

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"closedrules/internal/gen"
	"closedrules/internal/testgen"
)

func classic(t *testing.T) *Dataset {
	t.Helper()
	d, err := NewDataset([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMineClassicPipeline(t *testing.T) {
	d := classic(t)
	res, err := MineContext(context.Background(), d, WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if res.MinSupport() != 2 {
		t.Fatalf("MinSupport = %d", res.MinSupport())
	}
	if res.NumClosed() != 6 {
		t.Fatalf("|FC| = %d, want 6", res.NumClosed())
	}
	fi, err := res.FrequentItemsets()
	if err != nil {
		t.Fatal(err)
	}
	if len(fi) != 15 {
		t.Fatalf("|FI| = %d, want 15", len(fi))
	}
	max := res.MaximalItemsets()
	if len(max) != 1 || !max[0].Items.Equal(Items(0, 1, 2, 4)) {
		t.Errorf("maximal = %v", max)
	}
}

func TestMineAlgorithmsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 15; iter++ {
		d := testgen.Random(r, 30, 10, 0.4)
		var counts [4]int
		for i, algo := range []string{"close", "a-close", "charm", "titanic"} {
			res, err := MineContext(context.Background(), d,
				WithAbsoluteMinSupport(2), WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = res.NumClosed()
		}
		if counts[0] != counts[1] || counts[1] != counts[2] || counts[2] != counts[3] {
			t.Fatalf("iter %d: algorithms disagree: %v", iter, counts)
		}
	}
}

func TestMineOptionValidation(t *testing.T) {
	d := classic(t)
	ctx := context.Background()
	if _, err := MineContext(ctx, d); err == nil {
		t.Error("missing support threshold accepted")
	}
	if _, err := MineContext(ctx, d, WithMinSupport(1.5)); err == nil {
		t.Error("WithMinSupport > 1 accepted")
	}
	if _, err := MineContext(ctx, d, WithAbsoluteMinSupport(0)); err == nil {
		t.Error("WithAbsoluteMinSupport < 1 accepted")
	}
	if _, err := MineContext(ctx, d, WithMinSupport(0.4), WithAlgorithm("bogus")); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := MineContext(ctx, d, WithMinSupport(0.4), nil); err == nil {
		t.Error("nil option accepted")
	}
	if _, err := MineContext(ctx, d, WithAbsoluteMinSupport(3)); err != nil {
		t.Errorf("absolute threshold rejected: %v", err)
	}
}

func TestBasesClassic(t *testing.T) {
	d := classic(t)
	res, err := MineContext(context.Background(), d, WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	exact, approx := paperBases(t, res, 0)
	// DG = {A→C, B→E, E→B}; Lux reduction (non-∅) = 5 rules.
	if exact.Len() != 3 {
		t.Fatalf("|DG| = %d, want 3: %v", exact.Len(), exact.Rules)
	}
	if approx.Len() != 5 {
		t.Fatalf("|Lux red| = %d, want 5: %v", approx.Len(), approx.Rules)
	}

	// Compare against all valid rules: the compression the paper is
	// about. At minConf 0 the classic example has 50 valid rules.
	all, err := res.AllRules(0)
	if err != nil {
		t.Fatal(err)
	}
	if size := exact.Len() + approx.Len(); len(all) <= size {
		t.Errorf("bases (%d) not smaller than all rules (%d)", size, len(all))
	}
}

// paperBases returns the paper's two bases of res: Duquenne–Guigues
// and the reduced Luxenburger basis at minConf.
func paperBases(t testing.TB, res *Result, minConf float64) (exact, approx *RuleSet) {
	t.Helper()
	ctx := context.Background()
	exact, err := res.Basis(ctx, "duquenne-guigues")
	if err != nil {
		t.Fatal(err)
	}
	approx, err = res.Basis(ctx, "luxenburger", WithMinConfidence(minConf))
	if err != nil {
		t.Fatal(err)
	}
	return exact, approx
}

func TestEngineRoundTripViaFacade(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 20; iter++ {
		d := testgen.Random(r, 20, 8, 0.45)
		res, err := MineContext(context.Background(), d, WithAbsoluteMinSupport(1+r.Intn(3)))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := res.DerivationEngine(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		all, err := res.AllRules(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range all {
			got, err := eng.Rule(want.Antecedent, want.Consequent)
			if err != nil {
				t.Fatalf("iter %d: %v not derivable: %v", iter, want, err)
			}
			if got.Support != want.Support ||
				math.Abs(got.Confidence()-want.Confidence()) > 1e-12 {
				t.Fatalf("iter %d: %v derived wrong (%d, %v)",
					iter, want, got.Support, got.Confidence())
			}
		}
	}
}

func TestLuxenburgerFullViaFacade(t *testing.T) {
	d := classic(t)
	res, _ := MineContext(context.Background(), d, WithMinSupport(0.4))
	ctx := context.Background()
	full, err := res.Basis(ctx, "luxenburger", WithReduction(false))
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 7 {
		t.Fatalf("|Lux full| = %d, want 7", full.Len())
	}
	filtered, err := res.Basis(ctx, "luxenburger", WithMinConfidence(0.7), WithReduction(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range filtered.Rules {
		if r.Confidence() < 0.7 {
			t.Errorf("rule %v below threshold", r)
		}
	}
}

func TestGenericAndInformativeViaFacade(t *testing.T) {
	d := classic(t)
	res, _ := MineContext(context.Background(), d, WithMinSupport(0.4))
	ctx := context.Background()
	gb, err := res.Basis(ctx, "generic")
	if err != nil {
		t.Fatal(err)
	}
	if gb.Len() != 7 {
		t.Fatalf("|GB| = %d, want 7", gb.Len())
	}
	ib, err := res.Basis(ctx, "informative", WithReduction(false))
	if err != nil {
		t.Fatal(err)
	}
	ibRed, err := res.Basis(ctx, "informative")
	if err != nil {
		t.Fatal(err)
	}
	if ibRed.Len() > ib.Len() {
		t.Errorf("reduced IB (%d) larger than IB (%d)", ibRed.Len(), ib.Len())
	}

	// Charm-mined results cannot produce generator bases.
	resCharm, _ := MineContext(ctx, d, WithMinSupport(0.4), WithAlgorithm("charm"))
	if _, err := resCharm.Basis(ctx, "generic"); err == nil {
		t.Error("generic basis on Charm result should fail")
	}
	if _, err := resCharm.Basis(ctx, "informative"); err == nil {
		t.Error("informative basis on Charm result should fail")
	}
}

func TestPseudoClosedViaFacade(t *testing.T) {
	d := classic(t)
	res, _ := MineContext(context.Background(), d, WithMinSupport(0.4))
	ps, err := res.PseudoClosedItemsets()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("|FP| = %d, want 3", len(ps))
	}
}

func TestClosureAndSupportViaFacade(t *testing.T) {
	d := classic(t)
	res, _ := MineContext(context.Background(), d, WithMinSupport(0.4))
	cl, ok := res.Closure(Items(0))
	if !ok || !cl.Items.Equal(Items(0, 2)) {
		t.Errorf("Closure(A) = %v,%v", cl.Items, ok)
	}
	sup, ok := res.Support(Items(1, 2))
	if !ok || sup != 3 {
		t.Errorf("Support(BC) = %d,%v", sup, ok)
	}
	if _, ok := res.Support(Items(3)); ok {
		t.Error("Support(D) should fail at minsup 2")
	}
}

func TestLatticeExports(t *testing.T) {
	d := classic(t)
	res, _ := MineContext(context.Background(), d, WithMinSupport(0.4))
	dot := res.LatticeDOT()
	if !strings.Contains(dot, "digraph lattice") {
		t.Error("DOT missing header")
	}
	edges := res.LatticeEdges()
	if len(edges) != 7 {
		t.Errorf("|edges| = %d, want 7", len(edges))
	}
}

func TestMineFrequentBaselines(t *testing.T) {
	d := classic(t)
	ctx := context.Background()
	ap, err := MineFrequentContext(ctx, d, WithMinSupport(0.4), WithAlgorithm("apriori"))
	if err != nil {
		t.Fatal(err)
	}
	ec, err := MineFrequentContext(ctx, d, WithMinSupport(0.4), WithAlgorithm("eclat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ap) != 15 || len(ec) != 15 {
		t.Fatalf("baselines disagree: apriori %d, eclat %d", len(ap), len(ec))
	}
	for i := range ap {
		if !ap[i].Items.Equal(ec[i].Items) || ap[i].Support != ec[i].Support {
			t.Fatalf("item %d differs", i)
		}
	}
}

func TestFormatRulesUsesNames(t *testing.T) {
	d := classic(t)
	named, err := d.WithNames([]string{"A", "B", "C", "D", "E"})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := MineContext(context.Background(), named, WithMinSupport(0.4))
	exact, _ := paperBases(t, res, 0)
	out := FormatRules(exact.Rules, named)
	if !strings.Contains(out, "{A} → {C}") {
		t.Errorf("FormatRules output:\n%s", out)
	}
}

func TestRuleMetricsViaFacade(t *testing.T) {
	d := classic(t)
	res, _ := MineContext(context.Background(), d, WithMinSupport(0.4))
	all, _ := res.AllRules(0.5)
	if len(all) == 0 {
		t.Fatal("no rules")
	}
	m, err := RuleMetrics(all[0], d.NumTransactions())
	if err != nil {
		t.Fatal(err)
	}
	if m.Support <= 0 || m.Confidence < 0.5 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestResultConcurrentAccess exercises the lazy caches from multiple
// goroutines; run with -race.
func TestResultConcurrentAccess(t *testing.T) {
	d := classic(t)
	res, err := MineContext(context.Background(), d, WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := res.FrequentItemsets(); err != nil {
				t.Error(err)
			}
			if _, err := res.Basis(context.Background(), "luxenburger", WithMinConfidence(0.5)); err != nil {
				t.Error(err)
			}
			if res.LatticeDOT() == "" {
				t.Error("empty DOT")
			}
			if _, err := res.AllRules(0.5); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestEndToEndMushroomRegime is the headline behaviour on correlated
// data: the bases are dramatically smaller than the rule set.
func TestEndToEndMushroomRegime(t *testing.T) {
	d, err := gen.Mushroom(gen.MushroomConfig{NumObjects: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineContext(context.Background(), d, WithMinSupport(0.3))
	if err != nil {
		t.Fatal(err)
	}
	dg, lux := paperBases(t, res, 0.5)
	all, err := res.AllRules(0.5)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for _, r := range all {
		if r.IsExact() {
			exact++
		}
	}
	if exact == 0 {
		t.Skip("no exact rules at this scale")
	}
	if dg.Len() >= exact {
		t.Errorf("DG (%d) not smaller than exact rules (%d)", dg.Len(), exact)
	}
	if size := dg.Len() + lux.Len(); size >= len(all) {
		t.Errorf("bases (%d) not smaller than all rules (%d)", size, len(all))
	}
}

func TestEndToEndQuestRegime(t *testing.T) {
	d, err := gen.Quest(gen.T10I4(1500, 120, 11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineContext(context.Background(), d, WithMinSupport(0.01))
	if err != nil {
		t.Fatal(err)
	}
	// Weakly correlated: few or no exact rules.
	exact, approx := paperBases(t, res, 0.5)
	fi, err := res.FrequentItemsets()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClosed() == 0 || len(fi) == 0 {
		t.Skip("no itemsets at this scale")
	}
	t.Logf("quest: |FI|=%d |FC|=%d |DG|=%d |LuxRed|=%d",
		len(fi), res.NumClosed(), exact.Len(), approx.Len())
}
