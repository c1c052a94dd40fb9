// Market-basket example: IBM-Quest-style weakly correlated data (the
// T10I4 regime of the paper's evaluations). On this kind of data the
// closed sets nearly coincide with the frequent sets — the honest
// negative result of the Close line of papers — yet the Luxenburger
// reduction still prunes most of the redundant approximate rules.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"closedrules"
)

func main() {
	ctx := context.Background()
	cfg := closedrules.QuestT10I4(10000, 500, 2026)
	ds, err := closedrules.GenerateQuest(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s := ds.Stats()
	fmt.Printf("synthetic baskets: %d transactions, %d items, avg length %.1f\n",
		s.NumTransactions, s.NumItems, s.AvgLen)

	// Charm's depth-first tidset intersections suit this sparse regime.
	start := time.Now()
	res, err := closedrules.MineContext(ctx, ds,
		closedrules.WithMinSupport(0.01),
		closedrules.WithAlgorithm("charm"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closed mining (minsup 1%%): %d closed itemsets in %v\n",
		res.NumClosed(), time.Since(start).Round(time.Millisecond))

	fi, err := res.FrequentItemsets()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frequent itemsets: %d  →  |FI|/|FC| = %.2f (weakly correlated: ≈1)\n",
		len(fi), float64(len(fi))/float64(res.NumClosed()))

	exact, err := res.Basis(ctx, "duquenne-guigues")
	if err != nil {
		log.Fatal(err)
	}
	approx, err := res.Basis(ctx, "luxenburger", closedrules.WithMinConfidence(0.5))
	if err != nil {
		log.Fatal(err)
	}
	all, err := res.AllRules(0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("valid rules @conf 50%%: %d   bases: %d exact + %d approximate\n",
		len(all), exact.Len(), approx.Len())

	// Rank the basis rules by lift to surface the interesting ones.
	type scored struct {
		r    closedrules.Rule
		lift float64
	}
	var ranked []scored
	for _, r := range approx.Rules {
		m, err := closedrules.RuleMetrics(r, ds.NumTransactions())
		if err != nil {
			continue
		}
		ranked = append(ranked, scored{r, m.Lift})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].lift > ranked[j].lift })
	fmt.Println("\ntop basis rules by lift:")
	for i, sc := range ranked {
		if i == 5 {
			break
		}
		fmt.Printf("  lift %.1f  %v\n", sc.lift, sc.r)
	}
}
