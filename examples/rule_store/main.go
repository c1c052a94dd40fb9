// Rule-store example: the full downstream workflow — mine once, persist
// the condensed representation (closed itemsets + bases), then answer
// rule queries from the stored artifacts without touching the original
// data again, including serving them concurrently from a QueryService.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"closedrules"
)

func main() {
	ctx := context.Background()
	ds, err := closedrules.GenerateCensus(closedrules.CensusC20(3000, 13))
	if err != nil {
		log.Fatal(err)
	}
	// genclose records each closed itemset's minimal generators, so the
	// stored collection can serve the generic basis later.
	res, err := closedrules.MineContext(ctx, ds, closedrules.WithMinSupport(0.4),
		closedrules.WithAlgorithm("genclose"))
	if err != nil {
		log.Fatal(err)
	}

	// Persist the closed itemsets (the condensed representation)…
	var fcStore bytes.Buffer
	if err := res.SaveClosedItemsets(&fcStore); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %d closed itemsets (%d bytes of text)\n",
		res.NumClosed(), fcStore.Len())

	// …and the bases as JSON for other tools.
	exact, err := res.Basis(ctx, "duquenne-guigues")
	if err != nil {
		log.Fatal(err)
	}
	approx, err := res.Basis(ctx, "luxenburger", closedrules.WithMinConfidence(0.6))
	if err != nil {
		log.Fatal(err)
	}
	var ruleStore bytes.Buffer
	all := append(append([]closedrules.Rule{}, exact.Rules...), approx.Rules...)
	if err := closedrules.WriteRulesJSON(&ruleStore, all); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %d basis rules as JSON (%d bytes)\n", len(all), ruleStore.Len())

	// Reload both stores.
	loaded, err := closedrules.LoadResult(bytes.NewReader(fcStore.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	rules, err := closedrules.ReadRulesJSON(bytes.NewReader(ruleStore.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded %d closed itemsets, %d rules\n\n", loaded.NumClosed(), len(rules))

	// Query the reloaded rules: the strongest associations by lift,
	// and everything that predicts a chosen attribute value.
	fmt.Println("top 3 reloaded rules by lift:")
	for _, r := range closedrules.TopRulesByLift(rules, 3, ds.NumTransactions()) {
		fmt.Println("  " + r.Format(ds.Names()))
	}

	target := rules[0].Consequent[0]
	predicting := closedrules.RulesPredicting(rules, target)
	fmt.Printf("\nrules predicting %s: %d\n", ds.ItemName(target), len(predicting))
	for i, r := range predicting {
		if i == 3 {
			fmt.Printf("  … and %d more\n", len(predicting)-3)
			break
		}
		fmt.Println("  " + r.Format(ds.Names()))
	}

	// Stand up a serving layer over the reloaded closed itemsets: the
	// QueryService answers concurrent support/confidence/recommendation
	// queries straight from the condensed representation, recommending
	// from the generic basis the stored generators allow.
	qs, err := closedrules.NewQueryServiceWithBases(loaded, 0.6,
		closedrules.BasisSelection{Exact: "generic"})
	if err != nil {
		log.Fatal(err)
	}
	observed := closedrules.Items(rules[0].Antecedent...)
	recs, err := qs.Recommend(ctx, observed, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserved recommendations for %s:\n", observed.Format(ds.Names()))
	for _, r := range recs {
		fmt.Println("  " + r.Format(ds.Names()))
	}
}
