// Census example: strongly correlated nominal data (the C20D10K regime
// of the paper's evaluations). Latent population clusters induce hard
// functional dependencies, so the frequent itemsets vastly outnumber
// the closed ones and the bases compress the rule set by an order of
// magnitude or more. The example also shows the derivation engine
// answering ad-hoc rule queries from the bases alone.
package main

import (
	"context"
	"fmt"
	"log"

	"closedrules"
)

func main() {
	ctx := context.Background()
	ds, err := closedrules.GenerateCensus(closedrules.CensusC20(5000, 7))
	if err != nil {
		log.Fatal(err)
	}
	s := ds.Stats()
	fmt.Printf("census-like data: %d objects × 20 attributes (%d items)\n",
		s.NumTransactions, s.NumItems)

	// Titanic computes every closure from support counts alone — on
	// correlated data like this it avoids all closure database passes.
	res, err := closedrules.MineContext(ctx, ds,
		closedrules.WithMinSupport(0.4),
		closedrules.WithAlgorithm("titanic"))
	if err != nil {
		log.Fatal(err)
	}
	fi, err := res.FrequentItemsets()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minsup 40%%: |FI| = %d, |FC| = %d  (|FI|/|FC| = %.1f — strongly correlated)\n",
		len(fi), res.NumClosed(), float64(len(fi))/float64(res.NumClosed()))

	exact, err := res.Basis(ctx, "duquenne-guigues")
	if err != nil {
		log.Fatal(err)
	}
	for _, minConf := range []float64{0.9, 0.7} {
		all, err := res.AllRules(minConf)
		if err != nil {
			log.Fatal(err)
		}
		approx, err := res.Basis(ctx, "luxenburger", closedrules.WithMinConfidence(minConf))
		if err != nil {
			log.Fatal(err)
		}
		size := exact.Len() + approx.Len()
		fmt.Printf("conf ≥ %.0f%%: %6d valid rules  →  basis %4d rules (%.1f× smaller)\n",
			minConf*100, len(all), size, float64(len(all))/float64(size))
	}

	// Exact rules: the functional dependencies the generator planted.
	fmt.Println("\nDuquenne–Guigues basis (the data's functional dependencies):")
	for i, r := range exact.Rules {
		if i == 8 {
			fmt.Printf("  … and %d more\n", exact.Len()-8)
			break
		}
		fmt.Println("  " + r.Format(ds.Names()))
	}

	// Ad-hoc query answered from the bases, not the data.
	eng, err := res.DerivationEngine(ctx)
	if err != nil {
		log.Fatal(err)
	}
	approx, err := res.Basis(ctx, "luxenburger", closedrules.WithMinConfidence(0.7))
	if err != nil {
		log.Fatal(err)
	}
	if approx.Len() > 0 {
		q := approx.Rules[0]
		r, err := eng.Rule(q.Antecedent, q.Consequent)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nengine-derived (no database access): %s\n", r.Format(ds.Names()))
	}
}
