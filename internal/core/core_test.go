package core

import (
	"context"
	"math/rand"
	"testing"

	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	"closedrules/internal/galois"
	"closedrules/internal/itemset"
	"closedrules/internal/lattice"
	"closedrules/internal/naive"
	"closedrules/internal/rules"
	"closedrules/internal/testgen"
)

// classic returns the Close-paper example: 1:ACD 2:BCE 3:ABCE 4:BE
// 5:ABCE with A=0,…,E=4, plus its FI/FC at minsup 2.
func classic(t *testing.T) (*dataset.Context, *itemset.Family, *closedset.Set) {
	t.Helper()
	d, err := dataset.FromTransactions([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := d.Context()
	return ctx, naive.FrequentItemsets(ctx, 2), naive.ClosedItemsets(ctx, 2)
}

func TestPseudoClosedSetsClassic(t *testing.T) {
	ctx, _, fc := classic(t)
	got, err := PseudoClosedSets(context.Background(), ctx.NumObjects, fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("|FP| = %d, want 3: %v", len(got), got)
	}
	want := map[string]string{
		itemset.Of(0).Key(): itemset.Of(0, 2).Key(), // A → AC
		itemset.Of(1).Key(): itemset.Of(1, 4).Key(), // B → BE
		itemset.Of(4).Key(): itemset.Of(1, 4).Key(), // E → BE
	}
	for _, p := range got {
		cl, ok := want[p.Items.Key()]
		if !ok || p.Closure.Key() != cl {
			t.Errorf("pseudo %v closure %v unexpected", p.Items, p.Closure)
		}
	}
}

func TestPseudoClosedMatchesNaiveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	for iter := 0; iter < 60; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fc := naive.ClosedItemsets(ctx, minSup)
		got, err := PseudoClosedSets(context.Background(), ctx.NumObjects, fc)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.PseudoClosed(ctx, minSup)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d pseudo-closed, naive %d", iter, len(got), len(want))
		}
		wantKeys := map[string]bool{}
		for _, w := range want {
			wantKeys[w.Key()] = true
		}
		for _, p := range got {
			if !wantKeys[p.Items.Key()] {
				t.Fatalf("iter %d: unexpected pseudo-closed %v", iter, p.Items)
			}
		}
	}
}

func TestDuquenneGuiguesClassic(t *testing.T) {
	ctx, _, fc := classic(t)
	dg, err := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
	if err != nil {
		t.Fatal(err)
	}
	// The classic DG basis: A→C, B→E, E→B.
	if len(dg) != 3 {
		t.Fatalf("|DG| = %d, want 3: %v", len(dg), dg)
	}
	want := map[string]bool{
		rules.Rule{Antecedent: itemset.Of(0), Consequent: itemset.Of(2)}.Key(): true,
		rules.Rule{Antecedent: itemset.Of(1), Consequent: itemset.Of(4)}.Key(): true,
		rules.Rule{Antecedent: itemset.Of(4), Consequent: itemset.Of(1)}.Key(): true,
	}
	for _, r := range dg {
		if !want[r.Key()] {
			t.Errorf("unexpected DG rule %v", r)
		}
		if !r.IsExact() {
			t.Errorf("DG rule %v not exact", r)
		}
	}
}

// TestDGSoundness: every DG rule holds with confidence 1 in the data.
func TestDGSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(223))
	for iter := 0; iter < 50; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fc := naive.ClosedItemsets(ctx, minSup)
		dg, err := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
		if err != nil {
			t.Fatal(err)
		}
		for _, rule := range dg {
			u := rule.Union()
			if galois.Support(ctx, u) != galois.Support(ctx, rule.Antecedent) {
				t.Fatalf("iter %d: DG rule %v does not hold", iter, rule)
			}
			if rule.Support != galois.Support(ctx, u) {
				t.Fatalf("iter %d: DG rule %v support mislabeled", iter, rule)
			}
		}
	}
}

// TestDGCompleteness: every valid exact rule is Armstrong-derivable
// from the DG basis (Theorem 1).
func TestDGCompleteness(t *testing.T) {
	r := rand.New(rand.NewSource(227))
	for iter := 0; iter < 50; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fam := naive.FrequentItemsets(ctx, minSup)
		fc := naive.ClosedItemsets(ctx, minSup)
		dg, err := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
		if err != nil {
			t.Fatal(err)
		}
		imps := NewImplications(dg)
		all, err := rules.Generate(fam, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		exact, _ := rules.Split(all)
		for _, rule := range exact {
			if !imps.Derives(rule) {
				t.Fatalf("iter %d: exact rule %v not derivable from DG %v", iter, rule, dg)
			}
		}
	}
}

// TestDGClosureMatchesGalois: LinClosure over the DG basis computes
// h(X) for every frequent X — the sharpest form of completeness.
func TestDGClosureMatchesGalois(t *testing.T) {
	r := rand.New(rand.NewSource(229))
	for iter := 0; iter < 50; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fam := naive.FrequentItemsets(ctx, minSup)
		fc := naive.ClosedItemsets(ctx, minSup)
		dg, err := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
		if err != nil {
			t.Fatal(err)
		}
		imps := NewImplications(dg)
		for _, f := range fam.All() {
			want := galois.Closure(ctx, f.Items)
			if got := imps.Close(f.Items); !got.Equal(want) {
				t.Fatalf("iter %d: Close(%v) = %v, want h = %v", iter, f.Items, got, want)
			}
		}
		// And for ∅ as well — but only when ∅ is frequent (otherwise
		// the basis rightfully knows nothing about h(∅)).
		if fc.Len() > 0 {
			if got := imps.Close(itemset.Empty()); !got.Equal(galois.Closure(ctx, itemset.Empty())) {
				t.Fatalf("iter %d: Close(∅) = %v", iter, got)
			}
		}
	}
}

// TestDGNonRedundant: no DG rule is derivable from the others —
// the basis is minimal (non-redundant generating set).
func TestDGNonRedundant(t *testing.T) {
	r := rand.New(rand.NewSource(233))
	for iter := 0; iter < 50; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fc := naive.ClosedItemsets(ctx, minSup)
		dg, err := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
		if err != nil {
			t.Fatal(err)
		}
		for drop := range dg {
			rest := make([]rules.Rule, 0, len(dg)-1)
			rest = append(rest, dg[:drop]...)
			rest = append(rest, dg[drop+1:]...)
			if NewImplications(rest).Derives(dg[drop]) {
				t.Fatalf("iter %d: DG rule %v redundant", iter, dg[drop])
			}
		}
	}
}

func TestLuxenburgerFullClassic(t *testing.T) {
	_, _, fc := classic(t)
	lux, err := LuxenburgerFull(fc, LuxenburgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-enumerated: 7 closed pairs with non-empty antecedent.
	if len(lux) != 7 {
		t.Fatalf("|Lux| = %d, want 7: %v", len(lux), lux)
	}
	for _, r := range lux {
		if r.IsExact() {
			t.Errorf("Luxenburger rule %v is exact", r)
		}
	}
	// With the empty antecedent there are two more (∅→C, ∅→BE, ∅→BCE, ∅→ABCE, ∅→AC).
	luxAll, err := LuxenburgerFull(fc, LuxenburgerOptions{IncludeEmptyAntecedent: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(luxAll) != 12 {
		t.Fatalf("|Lux with ∅| = %d, want 12", len(luxAll))
	}
}

func TestLuxenburgerReductionClassic(t *testing.T) {
	_, _, fc := classic(t)
	lat := lattice.Build(fc)
	red, err := LuxenburgerReduction(lat, fc, LuxenburgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 7 Hasse edges minus the 2 from the empty bottom = 5 rules.
	if len(red) != 5 {
		t.Fatalf("|reduction| = %d, want 5: %v", len(red), red)
	}
	want := map[string]bool{
		rules.Rule{Antecedent: itemset.Of(2), Consequent: itemset.Of(0)}.Key():       true, // C→A
		rules.Rule{Antecedent: itemset.Of(2), Consequent: itemset.Of(1, 4)}.Key():    true, // C→BE
		rules.Rule{Antecedent: itemset.Of(1, 4), Consequent: itemset.Of(2)}.Key():    true, // BE→C
		rules.Rule{Antecedent: itemset.Of(0, 2), Consequent: itemset.Of(1, 4)}.Key(): true, // AC→BE
		rules.Rule{Antecedent: itemset.Of(1, 2, 4), Consequent: itemset.Of(0)}.Key(): true, // BCE→A
	}
	for _, r := range red {
		if !want[r.Key()] {
			t.Errorf("unexpected reduction rule %v", r)
		}
	}
}

func TestLuxenburgerMinConfidenceFilter(t *testing.T) {
	_, _, fc := classic(t)
	lat := lattice.Build(fc)
	red, err := LuxenburgerReduction(lat, fc, LuxenburgerOptions{MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// Confidences: C→A 3/4, C→BE 3/4, BE→C 3/4, AC→BE 2/3, BCE→A 2/3.
	if len(red) != 3 {
		t.Fatalf("|reduction @0.7| = %d, want 3", len(red))
	}
	if _, err := LuxenburgerFull(fc, LuxenburgerOptions{MinConfidence: 1.5}); err == nil {
		t.Error("bad minconf accepted")
	}
}

// TestEngineDerivesEveryRule is the full Theorem 1+2 round trip: an
// engine built only from the two bases reproduces support and
// confidence of every valid rule (exact and approximate).
func TestEngineDerivesEveryRule(t *testing.T) {
	r := rand.New(rand.NewSource(239))
	for iter := 0; iter < 40; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fam := naive.FrequentItemsets(ctx, minSup)
		fc := naive.ClosedItemsets(ctx, minSup)
		lat := lattice.Build(fc)

		dg, err := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
		if err != nil {
			t.Fatal(err)
		}
		red, err := LuxenburgerReduction(lat, fc, LuxenburgerOptions{IncludeEmptyAntecedent: true})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(ctx.NumObjects, dg, red)
		if err != nil {
			t.Fatal(err)
		}

		all, err := rules.Generate(fam, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range all {
			got, err := eng.Rule(want.Antecedent, want.Consequent)
			if err != nil {
				t.Fatalf("iter %d: rule %v not derivable: %v", iter, want, err)
			}
			if got.Support != want.Support || got.AntecedentSupport != want.AntecedentSupport {
				t.Fatalf("iter %d: rule %v derived as sup=%d/%d, want %d/%d",
					iter, want, got.Support, got.AntecedentSupport,
					want.Support, want.AntecedentSupport)
			}
		}
	}
}

func TestEngineSupportsEveryFrequentItemset(t *testing.T) {
	r := rand.New(rand.NewSource(241))
	for iter := 0; iter < 40; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fam := naive.FrequentItemsets(ctx, minSup)
		fc := naive.ClosedItemsets(ctx, minSup)
		lat := lattice.Build(fc)
		dg, _ := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
		red, _ := LuxenburgerReduction(lat, fc, LuxenburgerOptions{IncludeEmptyAntecedent: true})
		eng, err := NewEngine(ctx.NumObjects, dg, red)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fam.All() {
			got, ok := eng.Support(f.Items)
			if !ok || got != f.Support {
				t.Fatalf("iter %d: Support(%v) = %d,%v want %d",
					iter, f.Items, got, ok, f.Support)
			}
		}
	}
}

func TestEngineRejectsOverlap(t *testing.T) {
	ctx, _, fc := classic(t)
	lat := lattice.Build(fc)
	dg, _ := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
	red, _ := LuxenburgerReduction(lat, fc, LuxenburgerOptions{IncludeEmptyAntecedent: true})
	eng, _ := NewEngine(ctx.NumObjects, dg, red)
	if _, err := eng.Rule(itemset.Of(1), itemset.Of(1, 4)); err == nil {
		t.Error("overlapping rule accepted")
	}
	if _, err := eng.Rule(itemset.Of(3), itemset.Of(1)); err == nil {
		t.Error("infrequent antecedent derivable")
	}
}

func TestEngineHolds(t *testing.T) {
	ctx, _, fc := classic(t)
	lat := lattice.Build(fc)
	dg, _ := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
	red, _ := LuxenburgerReduction(lat, fc, LuxenburgerOptions{IncludeEmptyAntecedent: true})
	eng, _ := NewEngine(ctx.NumObjects, dg, red)
	// C→B has conf 3/4 and support 3.
	ok, err := eng.Holds(itemset.Of(2), itemset.Of(1), 2, 0.7)
	if err != nil || !ok {
		t.Errorf("Holds(C→B @0.7) = %v,%v", ok, err)
	}
	ok, err = eng.Holds(itemset.Of(2), itemset.Of(1), 2, 0.8)
	if err != nil || ok {
		t.Errorf("Holds(C→B @0.8) = %v,%v", ok, err)
	}
}

func TestExpandFrequentMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(251))
	for iter := 0; iter < 50; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fc := naive.ClosedItemsets(ctx, minSup)
		got, err := ExpandFrequent(fc, 25)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.FrequentItemsets(ctx, minSup)
		if !got.Equal(want) {
			t.Fatalf("iter %d: expand %d itemsets, naive %d", iter, got.Len(), want.Len())
		}
	}
}

func TestGenericBasisClassic(t *testing.T) {
	_, _, fc := classic(t)
	gb, err := GenericBasis(fc)
	if err != nil {
		t.Fatal(err)
	}
	// Generators with closure ≠ self: A→C(AC), B→E, E→B, BC→E? no:
	// BC generates BCE → rule BC→E; CE→B; AB→CE; AE→BC.
	if len(gb) != 7 {
		t.Fatalf("|GB| = %d, want 7: %v", len(gb), gb)
	}
	for _, r := range gb {
		if !r.IsExact() {
			t.Errorf("generic rule %v not exact", r)
		}
	}
}

// TestGenericBasisEquivalentToDG: the generic basis and the DG basis
// generate the same exact rules (both are complete for exact rules).
func TestGenericBasisEquivalentToDG(t *testing.T) {
	r := rand.New(rand.NewSource(257))
	for iter := 0; iter < 40; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fc := naive.ClosedItemsets(ctx, minSup)
		dg, err := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := GenericBasis(fc)
		if err != nil {
			t.Fatal(err)
		}
		dgImps, gbImps := NewImplications(dg), NewImplications(gb)
		for _, rule := range dg {
			if !gbImps.Derives(rule) {
				t.Fatalf("iter %d: GB cannot derive DG rule %v", iter, rule)
			}
		}
		for _, rule := range gb {
			if !dgImps.Derives(rule) {
				t.Fatalf("iter %d: DG cannot derive GB rule %v", iter, rule)
			}
		}
		// DG is the cardinality-minimum basis: never larger than GB.
		if len(dg) > len(gb) {
			t.Fatalf("iter %d: |DG|=%d > |GB|=%d", iter, len(dg), len(gb))
		}
	}
}

// TestInformativeBasisCoversAllApproxRules: for every valid approximate
// rule A→C there is an informative rule with antecedent ⊆ A, union ⊇
// A∪C, and the same support and confidence (the min-max property).
func TestInformativeBasisCoversAllApproxRules(t *testing.T) {
	r := rand.New(rand.NewSource(263))
	for iter := 0; iter < 30; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fam := naive.FrequentItemsets(ctx, minSup)
		fc := naive.ClosedItemsets(ctx, minSup)
		lat := lattice.Build(fc)
		ib, err := InformativeBasis(lat, fc, false, LuxenburgerOptions{IncludeEmptyAntecedent: true})
		if err != nil {
			t.Fatal(err)
		}
		all, err := rules.Generate(fam, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, approx := rules.Split(all)
		for _, want := range approx {
			found := false
			u := want.Union()
			for _, r2 := range ib {
				if want.Antecedent.ContainsAll(r2.Antecedent) &&
					r2.Union().ContainsAll(u) &&
					r2.Support == want.Support &&
					r2.AntecedentSupport == want.AntecedentSupport {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("iter %d: approx rule %v not covered by informative basis", iter, want)
			}
		}
	}
}

func TestInformativeReducedSubsetOfFull(t *testing.T) {
	_, _, fc := classic(t)
	lat := lattice.Build(fc)
	full, err := InformativeBasis(lat, fc, false, LuxenburgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := InformativeBasis(lat, fc, true, LuxenburgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red) > len(full) {
		t.Fatalf("|reduced IB| = %d > |IB| = %d", len(red), len(full))
	}
	fullKeys := map[string]bool{}
	for _, r := range full {
		fullKeys[r.Key()] = true
	}
	for _, r := range red {
		if !fullKeys[r.Key()] {
			t.Errorf("reduced rule %v not in full basis", r)
		}
	}
}

// TestMaximalFrequentAreMaximalClosed is the paper's §2 property: the
// maximal frequent itemsets coincide with the maximal frequent closed
// itemsets (the second pillar, next to supp(X) = supp(h(X)), of FC
// being a generating set for FI).
func TestMaximalFrequentAreMaximalClosed(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	for iter := 0; iter < 60; iter++ {
		d := testgen.Random(r, 18, 8, 0.45)
		minSup := 1 + r.Intn(4)
		ctx := d.Context()
		fam := naive.FrequentItemsets(ctx, minSup)
		fc := naive.ClosedItemsets(ctx, minSup)

		// Maximal frequent itemsets, from FI directly.
		var maxFI []itemset.Itemset
		all := fam.All()
		for i, a := range all {
			isMax := true
			for j, b := range all {
				if i != j && b.Items.ContainsAll(a.Items) {
					isMax = false
					break
				}
			}
			if isMax {
				maxFI = append(maxFI, a.Items)
			}
		}

		maxFC := fc.Maximal()
		// The empty bottom can be the only closed set when no item is
		// frequent; FI excludes ∅, so compare only non-empty maxima.
		var maxFCn []itemset.Itemset
		for _, m := range maxFC {
			if m.Items.Len() > 0 {
				maxFCn = append(maxFCn, m.Items)
			}
		}
		if len(maxFI) != len(maxFCn) {
			t.Fatalf("iter %d: %d maximal frequent, %d maximal closed",
				iter, len(maxFI), len(maxFCn))
		}
		keys := map[string]bool{}
		for _, m := range maxFCn {
			keys[m.Key()] = true
		}
		for _, m := range maxFI {
			if !keys[m.Key()] {
				t.Fatalf("iter %d: maximal frequent %v is not maximal closed", iter, m)
			}
		}
	}
}

// TestLinClosureAgainstFixpoint cross-checks LinClosure with a naive
// iterate-to-fixpoint evaluator on random implication systems.
func TestLinClosureAgainstFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(269))
	for iter := 0; iter < 200; iter++ {
		n := 2 + r.Intn(10)
		var imps []rules.Rule
		for k := 0; k < r.Intn(8); k++ {
			var prem, conc []int
			for i := 0; i < n; i++ {
				if r.Intn(4) == 0 {
					prem = append(prem, i)
				}
				if r.Intn(4) == 0 {
					conc = append(conc, i)
				}
			}
			imps = append(imps, rules.Rule{
				Antecedent: itemset.Of(prem...),
				Consequent: itemset.Of(conc...),
			})
		}
		var start []int
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				start = append(start, i)
			}
		}
		x := itemset.Of(start...)

		// Naive fixpoint.
		want := x.Clone()
		for changed := true; changed; {
			changed = false
			for _, im := range imps {
				if want.ContainsAll(im.Antecedent) && !want.ContainsAll(im.Consequent) {
					want = want.Union(im.Consequent)
					changed = true
				}
			}
		}
		got := NewImplications(imps).Close(x)
		if !got.Equal(want) {
			t.Fatalf("iter %d: LinClosure %v, fixpoint %v (imps %v, x %v)",
				iter, got, want, imps, x)
		}
	}
}

func TestImplicationsRespects(t *testing.T) {
	imps := NewImplications([]rules.Rule{
		{Antecedent: itemset.Of(0), Consequent: itemset.Of(1)},
	})
	if imps.Respects(itemset.Of(0)) {
		t.Error("{0} should not respect 0→1")
	}
	if !imps.Respects(itemset.Of(0, 1)) {
		t.Error("{0,1} should respect 0→1")
	}
	if !imps.Respects(itemset.Of(2)) {
		t.Error("{2} should respect 0→1 vacuously")
	}
}
