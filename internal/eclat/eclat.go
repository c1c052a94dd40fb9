// Package eclat implements the Eclat frequent-itemset miner (Zaki,
// 1997): depth-first search over the itemset lattice with vertical
// tidset (bitset) intersections. It serves as an independent
// cross-check of Apriori and as the vertical baseline in benchmarks.
//
// Each first-level equivalence class — one frequent root item together
// with its extensions by the later roots — is an independent
// depth-first subtree, so both Eclat and dEclat (diffset.go) mine the
// classes on a bounded worker pool sized by the context's parallelism
// hint (else GOMAXPROCS). Workers append into per-class slices and
// share no mutable state; the merge into one Family happens
// single-threaded afterwards, which keeps the output independent of
// the worker count (Family.All sorts canonically, and distinct classes
// never produce the same itemset: every itemset of class i has minimum
// item roots[i]).
package eclat

import (
	"context"
	"fmt"

	"closedrules/internal/bitset"
	"closedrules/internal/dataset"
	"closedrules/internal/itemset"
	"closedrules/internal/miner"
)

// Mine returns all non-empty frequent itemsets with absolute support ≥
// minSup.
func Mine(d *dataset.Dataset, minSup int) (*itemset.Family, error) {
	return MineContext(context.Background(), d, minSup)
}

// MineContext is Mine with cancellation: every worker checks ctx at
// each prefix extension of its class, so a cancelled context aborts
// the run within one extension step per worker.
func MineContext(ctx context.Context, d *dataset.Dataset, minSup int) (*itemset.Family, error) {
	return mineClasses(ctx, d, minSup, mineClass)
}

// mineClasses fans the first-level classes of d out to the context's
// workers, each class walked by mineOne (mineClass or mineDiffClass)
// into a private slice, and merges the slices in root order.
func mineClasses(ctx context.Context, d *dataset.Dataset, minSup int,
	mineOne func(ctx context.Context, minSup int, roots []entry, i int, add func(itemset.Itemset, int)) error) (*itemset.Family, error) {
	if minSup < 1 {
		return nil, fmt.Errorf("eclat: minSup %d < 1", minSup)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	roots := frontier(d.Context(), minSup)
	results := make([][]itemset.Counted, len(roots))
	err := miner.RunPool(len(roots), miner.ParallelismFromContext(ctx), func(i int) error {
		add := func(p itemset.Itemset, sup int) {
			results[i] = append(results[i], itemset.Counted{Items: p, Support: sup})
		}
		return mineOne(ctx, minSup, roots, i, add)
	})
	if err != nil {
		return nil, err
	}
	fam := itemset.NewFamily()
	for _, local := range results {
		for _, f := range local {
			fam.Add(f.Items, f.Support)
		}
	}
	return fam, nil
}

// entry is one IT-pair of the search tree with its support cached.
type entry struct {
	item int
	tids bitset.Set
	sup  int
}

// frontier returns the frequent level-1 entries in item order.
func frontier(c *dataset.Context, minSup int) []entry {
	var out []entry
	for it := 0; it < c.NumItems; it++ {
		if sup := c.Cols[it].Count(); sup >= minSup {
			out = append(out, entry{item: it, tids: c.Cols[it], sup: sup})
		}
	}
	return out
}

// mineClass mines the tidset subtree of root i: the root itself plus
// every extension by later roots. The wide first-level intersections
// happen here, inside the worker, not on the dispatching goroutine.
func mineClass(ctx context.Context, minSup int, roots []entry, i int, add func(itemset.Itemset, int)) error {
	e := roots[i]
	p := itemset.Of(e.item)
	add(p, e.sup)
	var next []entry
	for _, f := range roots[i+1:] {
		if err := ctx.Err(); err != nil {
			return err
		}
		if sup := e.tids.IntersectionCount(f.tids); sup >= minSup {
			next = append(next, entry{item: f.item, tids: e.tids.Intersect(f.tids), sup: sup})
		}
	}
	if len(next) > 0 {
		return mine(ctx, minSup, next, p, add)
	}
	return nil
}

// mine runs the depth-first tidset search below prefix over ext,
// reporting every frequent itemset to add. Candidate extensions are
// probed with IntersectionCount first; a tidset is materialized only
// for the survivors, so infrequent extensions allocate nothing.
func mine(ctx context.Context, minSup int, ext []entry,
	prefix itemset.Itemset, add func(itemset.Itemset, int)) error {
	for i, e := range ext {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := prefix.With(e.item)
		add(p, e.sup)
		var next []entry
		for _, f := range ext[i+1:] {
			if sup := e.tids.IntersectionCount(f.tids); sup >= minSup {
				next = append(next, entry{item: f.item, tids: e.tids.Intersect(f.tids), sup: sup})
			}
		}
		if len(next) > 0 {
			if err := mine(ctx, minSup, next, p, add); err != nil {
				return err
			}
		}
	}
	return nil
}
