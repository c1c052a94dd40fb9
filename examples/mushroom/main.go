// Mushroom example: the densest, most correlated dataset of the
// paper's evaluation line. The class attribute is almost determined by
// odor, veil-type is constant (so h(∅) ≠ ∅ and the Duquenne–Guigues
// basis starts from the rule ∅ → veil-type), and the exact-rule
// compression is maximal: hundreds of exact rules collapse to a
// handful of pseudo-closed antecedents.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"closedrules"
)

func main() {
	// A deadline bounds the mine: if the thresholds turn out to be
	// explosive, the run aborts with ctx.Err() instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ds, err := closedrules.GenerateMushroom(closedrules.MushroomConfig{NumObjects: 8124, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	s := ds.Stats()
	fmt.Printf("mushroom-like data: %d objects × 23 attributes (%d items)\n",
		s.NumTransactions, s.NumItems)

	res, err := closedrules.MineContext(ctx, ds, closedrules.WithMinSupport(0.3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minsup 30%%: %d frequent closed itemsets\n", res.NumClosed())

	// h(∅): the items present in every single object.
	if bot, ok := res.Closure(closedrules.Items()); ok && bot.Items.Len() > 0 {
		fmt.Printf("h(∅) = %s — universal items, the root of the DG basis\n",
			bot.Items.Format(ds.Names()))
	}

	all, err := res.AllRules(1.0) // exact rules only
	if err != nil {
		log.Fatal(err)
	}
	exact, err := res.Basis(ctx, "duquenne-guigues")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact rules: %d   Duquenne–Guigues basis: %d (%.0f× smaller)\n",
		len(all), exact.Len(),
		float64(len(all))/float64(maxInt(1, exact.Len())))
	fmt.Println("the basis rules:")
	for _, r := range exact.Rules {
		fmt.Println("  " + r.Format(ds.Names()))
	}

	// The generic basis trades minimality for readability: minimal
	// generator antecedents, no inference needed.
	gb, err := res.Basis(ctx, "generic")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngeneric basis (readable, minimal-generator antecedents): %d rules, e.g.\n", gb.Len())
	for i, r := range gb.Rules {
		if i == 5 {
			break
		}
		fmt.Println("  " + r.Format(ds.Names()))
	}

	valid, err := res.AllRules(0.7)
	if err != nil {
		log.Fatal(err)
	}
	approx, err := res.Basis(ctx, "luxenburger", closedrules.WithMinConfidence(0.7))
	if err != nil {
		log.Fatal(err)
	}
	size := exact.Len() + approx.Len()
	fmt.Printf("\nvalid rules @conf 70%%: %d  →  bases: %d (%.1f× smaller)\n",
		len(valid), size, float64(len(valid))/float64(size))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
