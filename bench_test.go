package closedrules

// One benchmark family per experiment of DESIGN.md §4 (E1–E8). The
// heavier paper-shaped tables come from `go run ./cmd/benchtables`;
// these benchmarks time the core computation of each experiment on
// bench-friendly dataset sizes so `go test -bench=.` stays fast while
// still exposing the regressions that matter (candidate explosion,
// lattice construction, basis extraction, inference).

import (
	"context"
	"testing"

	"closedrules/internal/aclose"
	"closedrules/internal/apriori"
	"closedrules/internal/charm"
	"closedrules/internal/closealg"
	"closedrules/internal/core"
	"closedrules/internal/dataset"
	"closedrules/internal/eclat"
	"closedrules/internal/galois"
	"closedrules/internal/gen"
	"closedrules/internal/itemset"
	"closedrules/internal/lattice"
	"closedrules/internal/naive"
	"closedrules/internal/rules"
	"closedrules/internal/titanic"
)

// Benchmark datasets, built once.
var benchData = struct {
	quest    *dataset.Dataset
	mushroom *dataset.Dataset
	census   *dataset.Dataset
}{}

func questBench(b *testing.B) *dataset.Dataset {
	b.Helper()
	if benchData.quest == nil {
		d, err := gen.Quest(gen.T10I4(2000, 200, 1))
		if err != nil {
			b.Fatal(err)
		}
		benchData.quest = d
	}
	return benchData.quest
}

func mushroomBench(b *testing.B) *dataset.Dataset {
	b.Helper()
	if benchData.mushroom == nil {
		d, err := gen.Mushroom(gen.MushroomConfig{NumObjects: 2000, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		benchData.mushroom = d
	}
	return benchData.mushroom
}

func censusBench(b *testing.B) *dataset.Dataset {
	b.Helper()
	if benchData.census == nil {
		d, err := gen.Census(gen.C20(2000, 4))
		if err != nil {
			b.Fatal(err)
		}
		benchData.census = d
	}
	return benchData.census
}

// --- E1: |FI| vs |FC| --------------------------------------------------

func benchE1(b *testing.B, d *dataset.Dataset, minSup float64) {
	abs := d.AbsoluteSupport(minSup)
	b.ResetTimer()
	var nFI, nFC int
	for i := 0; i < b.N; i++ {
		fam, err := eclat.Mine(d, abs)
		if err != nil {
			b.Fatal(err)
		}
		fc, _, err := closealg.Mine(d, abs)
		if err != nil {
			b.Fatal(err)
		}
		nFI, nFC = fam.Len(), fc.Len()
	}
	b.ReportMetric(float64(nFI), "FI")
	b.ReportMetric(float64(nFC), "FC")
}

func BenchmarkE1_ClosedVsFrequent_T10I4(b *testing.B)    { benchE1(b, questBench(b), 0.01) }
func BenchmarkE1_ClosedVsFrequent_Mushroom(b *testing.B) { benchE1(b, mushroomBench(b), 0.3) }
func BenchmarkE1_ClosedVsFrequent_Census(b *testing.B)   { benchE1(b, censusBench(b), 0.5) }

// --- E2: exact rules vs DG basis ---------------------------------------

func benchE2(b *testing.B, d *dataset.Dataset, minSup float64) {
	abs := d.AbsoluteSupport(minSup)
	fc, _, err := closealg.Mine(d, abs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var nDG int
	for i := 0; i < b.N; i++ {
		dg, err := core.DuquenneGuigues(context.Background(), d.NumTransactions(), fc)
		if err != nil {
			b.Fatal(err)
		}
		nDG = len(dg)
	}
	b.ReportMetric(float64(nDG), "DGrules")
}

func BenchmarkE2_DGBasis_Mushroom(b *testing.B) { benchE2(b, mushroomBench(b), 0.3) }
func BenchmarkE2_DGBasis_Census(b *testing.B)   { benchE2(b, censusBench(b), 0.5) }
func BenchmarkE2_DGBasis_T10I4(b *testing.B)    { benchE2(b, questBench(b), 0.01) }

// BenchmarkE2_ExactRules_Mushroom is the baseline E2 compares against:
// enumerating every exact rule.
func BenchmarkE2_ExactRules_Mushroom(b *testing.B) {
	d := mushroomBench(b)
	abs := d.AbsoluteSupport(0.3)
	fam, _, err := apriori.Mine(d, abs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		exact, _, err := rules.Count(fam, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		n = exact
	}
	b.ReportMetric(float64(n), "exactRules")
}

// --- E3: approximate rules vs Luxenburger bases ------------------------

func benchE3(b *testing.B, d *dataset.Dataset, minSup, minConf float64) {
	abs := d.AbsoluteSupport(minSup)
	fc, _, err := closealg.Mine(d, abs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var nRed int
	for i := 0; i < b.N; i++ {
		lat := lattice.Build(fc)
		red, err := core.LuxenburgerReduction(lat, fc, core.LuxenburgerOptions{MinConfidence: minConf})
		if err != nil {
			b.Fatal(err)
		}
		nRed = len(red)
	}
	b.ReportMetric(float64(nRed), "LuxRed")
}

func BenchmarkE3_LuxReduction_Mushroom(b *testing.B) { benchE3(b, mushroomBench(b), 0.3, 0.5) }
func BenchmarkE3_LuxReduction_Census(b *testing.B)   { benchE3(b, censusBench(b), 0.5, 0.5) }

// BenchmarkE3_AllRules_Mushroom is the baseline: counting all valid
// rules at the same thresholds.
func BenchmarkE3_AllRules_Mushroom(b *testing.B) {
	d := mushroomBench(b)
	abs := d.AbsoluteSupport(0.3)
	fam, _, err := apriori.Mine(d, abs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		_, approx, err := rules.Count(fam, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		n = approx
	}
	b.ReportMetric(float64(n), "approxRules")
}

// --- E4: miner runtimes -------------------------------------------------

func benchMiner(b *testing.B, d *dataset.Dataset, minSup float64, mine func(*dataset.Dataset, int) error) {
	abs := d.AbsoluteSupport(minSup)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mine(d, abs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_Apriori_T10I4(b *testing.B) {
	benchMiner(b, questBench(b), 0.01, func(d *dataset.Dataset, s int) error {
		_, _, err := apriori.Mine(d, s)
		return err
	})
}

func BenchmarkE4_Close_T10I4(b *testing.B) {
	benchMiner(b, questBench(b), 0.01, func(d *dataset.Dataset, s int) error {
		_, _, err := closealg.Mine(d, s)
		return err
	})
}

func BenchmarkE4_AClose_T10I4(b *testing.B) {
	benchMiner(b, questBench(b), 0.01, func(d *dataset.Dataset, s int) error {
		_, _, err := aclose.Mine(d, s)
		return err
	})
}

func BenchmarkE4_Apriori_Mushroom(b *testing.B) {
	benchMiner(b, mushroomBench(b), 0.3, func(d *dataset.Dataset, s int) error {
		_, _, err := apriori.Mine(d, s)
		return err
	})
}

func BenchmarkE4_Close_Mushroom(b *testing.B) {
	benchMiner(b, mushroomBench(b), 0.3, func(d *dataset.Dataset, s int) error {
		_, _, err := closealg.Mine(d, s)
		return err
	})
}

func BenchmarkE4_AClose_Mushroom(b *testing.B) {
	benchMiner(b, mushroomBench(b), 0.3, func(d *dataset.Dataset, s int) error {
		_, _, err := aclose.Mine(d, s)
		return err
	})
}

// --- E5: scale-up -------------------------------------------------------

func benchE5(b *testing.B, numTx int) {
	d, err := gen.Quest(gen.T10I4(numTx, 200, 7))
	if err != nil {
		b.Fatal(err)
	}
	abs := d.AbsoluteSupport(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := closealg.Mine(d, abs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_ScaleUp_Close_1K(b *testing.B) { benchE5(b, 1000) }
func BenchmarkE5_ScaleUp_Close_2K(b *testing.B) { benchE5(b, 2000) }
func BenchmarkE5_ScaleUp_Close_4K(b *testing.B) { benchE5(b, 4000) }
func BenchmarkE5_ScaleUp_Close_8K(b *testing.B) { benchE5(b, 8000) }

// --- E6: informative bases ----------------------------------------------

func BenchmarkE6_InformativeBasis_Mushroom(b *testing.B) {
	d := mushroomBench(b)
	abs := d.AbsoluteSupport(0.3)
	fc, _, err := closealg.Mine(d, abs)
	if err != nil {
		b.Fatal(err)
	}
	lat := lattice.Build(fc)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		ib, err := core.InformativeBasis(lat, fc, true, core.LuxenburgerOptions{MinConfidence: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		n = len(ib)
	}
	b.ReportMetric(float64(n), "IBrules")
}

// --- E7: full pipeline ----------------------------------------------------

func benchE7(b *testing.B, d *dataset.Dataset, minSup, minConf float64) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := MineContext(ctx, d, WithMinSupport(minSup))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Bases(minConf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_Pipeline_Census(b *testing.B)   { benchE7(b, censusBench(b), 0.5, 0.5) }
func BenchmarkE7_Pipeline_Mushroom(b *testing.B) { benchE7(b, mushroomBench(b), 0.3, 0.5) }

// BenchmarkE7_EngineDerivation times rule reconstruction from the
// bases (the query path a downstream user exercises).
func BenchmarkE7_EngineDerivation(b *testing.B) {
	d := mushroomBench(b)
	res, err := MineContext(context.Background(), d, WithMinSupport(0.3))
	if err != nil {
		b.Fatal(err)
	}
	bases, err := res.Bases(0)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := bases.Engine()
	if err != nil {
		b.Fatal(err)
	}
	if len(bases.Approximate) == 0 {
		b.Skip("no approximate rules")
	}
	queries := bases.Approximate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := eng.Rule(q.Antecedent, q.Consequent); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: closed-miner ablation -------------------------------------------

func BenchmarkE8_Close_Census(b *testing.B) {
	benchMiner(b, censusBench(b), 0.5, func(d *dataset.Dataset, s int) error {
		_, _, err := closealg.Mine(d, s)
		return err
	})
}

func BenchmarkE8_AClose_Census(b *testing.B) {
	benchMiner(b, censusBench(b), 0.5, func(d *dataset.Dataset, s int) error {
		_, _, err := aclose.Mine(d, s)
		return err
	})
}

func BenchmarkE8_Charm_Census(b *testing.B) {
	benchMiner(b, censusBench(b), 0.5, func(d *dataset.Dataset, s int) error {
		_, err := charm.Mine(d, s)
		return err
	})
}

func BenchmarkE8_Titanic_Census(b *testing.B) {
	benchMiner(b, censusBench(b), 0.5, func(d *dataset.Dataset, s int) error {
		_, _, err := titanic.Mine(d, s)
		return err
	})
}

func BenchmarkE8_NaiveClosed_Census(b *testing.B) {
	d := censusBench(b)
	ctx := d.Context()
	abs := d.AbsoluteSupport(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naive.ClosedItemsets(ctx, abs)
	}
}

// --- representation ablations ---------------------------------------------

// Eclat's tidset-bitset representation vs dEclat's diffsets: same
// output, different memory traffic (DESIGN.md design-choice ablation).
func BenchmarkAblation_EclatTidsets_T10I4(b *testing.B) {
	benchMiner(b, questBench(b), 0.01, func(d *dataset.Dataset, s int) error {
		_, err := eclat.Mine(d, s)
		return err
	})
}

func BenchmarkAblation_EclatDiffsets_T10I4(b *testing.B) {
	benchMiner(b, questBench(b), 0.01, func(d *dataset.Dataset, s int) error {
		_, err := eclat.MineDiffset(d, s)
		return err
	})
}

// Iceberg-lattice construction: one up-set walk per node over FC's
// posting index, parallelized over GOMAXPROCS.
func BenchmarkLatticeBuild_T10I4(b *testing.B) {
	d := questBench(b)
	fc, _, err := closealg.Mine(d, d.AbsoluteSupport(0.01))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lattice.Build(fc)
	}
}

// --- micro: substrate hot paths -------------------------------------------

func BenchmarkGaloisClosure_Mushroom(b *testing.B) {
	d := mushroomBench(b)
	ctx := d.Context()
	items := itemset.Of(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkItemset = galois.Closure(ctx, items)
	}
}

var benchSinkItemset itemset.Itemset
