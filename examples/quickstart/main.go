// Quickstart: the running example of the Close paper (5 objects over
// items A..E), mined end to end — frequent closed itemsets, the
// Duquenne–Guigues basis, the reduced Luxenburger basis, and the
// derivation engine reconstructing an arbitrary rule from the bases.
package main

import (
	"context"
	"fmt"
	"log"

	"closedrules"
)

func main() {
	ctx := context.Background()
	// The classic context: 1:ACD 2:BCE 3:ABCE 4:BE 5:ABCE.
	ds, err := closedrules.NewDataset([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	ds, err = ds.WithNames([]string{"A", "B", "C", "D", "E"})
	if err != nil {
		log.Fatal(err)
	}

	// genclose records each closed itemset's minimal generators; the
	// default miner (charm) mines the same closed itemsets without them.
	res, err := closedrules.MineContext(ctx, ds, closedrules.WithMinSupport(0.4),
		closedrules.WithAlgorithm("genclose"))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("## Frequent closed itemsets (minsup 40%)")
	for _, c := range res.ClosedItemsets() {
		fmt.Printf("  %-15s support %d/5", c.Items.Format(ds.Names()), c.Support)
		if len(c.Generators) > 0 {
			fmt.Print("   generators:")
			for _, g := range c.Generators {
				fmt.Printf(" %s", g.Format(ds.Names()))
			}
		}
		fmt.Println()
	}

	// Bases are first-class and resolved by registry name, exactly like
	// miners: closedrules.Bases() lists what is registered, and each
	// returned RuleSet carries its provenance (basis name, thresholds).
	exact, err := res.Basis(ctx, "duquenne-guigues")
	if err != nil {
		log.Fatal(err)
	}
	approx, err := res.Basis(ctx, "luxenburger", closedrules.WithMinConfidence(0.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n## %s basis (exact rules)\n", exact.Basis)
	fmt.Print(closedrules.FormatRules(exact.Rules, ds))
	fmt.Printf("\n## reduced %s basis (approximate rules, conf ≥ %.0f%%)\n",
		approx.Basis, approx.MinConfidence*100)
	fmt.Print(closedrules.FormatRules(approx.Rules, ds))

	all, err := res.AllRules(0.5)
	if err != nil {
		log.Fatal(err)
	}
	size := exact.Len() + approx.Len()
	fmt.Printf("\nall valid rules: %d — bases: %d rules (%.1f× smaller)\n",
		len(all), size, float64(len(all))/float64(size))

	// The bases are generating sets: rebuild any rule from them alone.
	eng, err := res.DerivationEngine(ctx)
	if err != nil {
		log.Fatal(err)
	}
	r, err := eng.Rule(closedrules.Items(2), closedrules.Items(0)) // C → A
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nderived from the bases alone: %s\n", r.Format(ds.Names()))

	// Serve the bases concurrently: a QueryService answers support,
	// confidence and recommendation queries from the condensed
	// representation.
	qs, err := closedrules.NewQueryService(res, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	conf, err := qs.Confidence(ctx, closedrules.Items(2), closedrules.Items(0)) // C → A
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served confidence of C → A: %.3f\n", conf)
	recs, err := qs.Recommend(ctx, closedrules.Items(1), 2) // observed {B}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recommendations for a basket containing B:")
	for _, r := range recs {
		fmt.Println("  " + r.Format(ds.Names()))
	}
}
