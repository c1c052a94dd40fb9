package eclat

import (
	"context"

	"closedrules/internal/bitset"
	"closedrules/internal/dataset"
	"closedrules/internal/itemset"
)

// MineDiffset is the dEclat variant (Zaki & Gouda, KDD 2003): instead
// of intersecting tidsets along the search tree it propagates
// *diffsets* — the tids lost relative to the parent — so the sets
// shrink as the tree deepens instead of staying wide. Results are
// identical to Mine; the benchmark suite uses the pair as a
// representation ablation (DESIGN.md E8 family).
func MineDiffset(d *dataset.Dataset, minSup int) (*itemset.Family, error) {
	return MineDiffsetContext(context.Background(), d, minSup)
}

// MineDiffsetContext is MineDiffset with cancellation, checked by
// every worker at each prefix extension like MineContext. The classes
// fan out to the same worker pool as Eclat's.
func MineDiffsetContext(ctx context.Context, d *dataset.Dataset, minSup int) (*itemset.Family, error) {
	return mineClasses(ctx, d, minSup, mineDiffClass)
}

// dnode carries the diffset relative to its parent and its support —
// the dEclat analogue of entry.
type dnode struct {
	item    int
	diff    bitset.Set // parentTids ∖ tids(item within subtree)
	support int
}

// mineDiff walks the diffset subtree below prefix, reporting every
// frequent itemset through add; add must be cheap and need not be
// thread-safe (each class owns its own sink).
func mineDiff(ctx context.Context, minSup int, ext []dnode, prefix itemset.Itemset, add func(itemset.Itemset, int)) error {
	for i, e := range ext {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := prefix.With(e.item)
		add(p, e.support)
		var next []dnode
		for _, f := range ext[i+1:] {
			// diffset(P∪{e,f}) = diff(f) ∖ diff(e); support drops by
			// the size of that new diffset. Probe the size with a
			// popcount-only pass and materialize survivors only.
			sup := e.support - f.diff.AndNotCount(e.diff)
			if sup >= minSup {
				next = append(next, dnode{item: f.item, diff: f.diff.Difference(e.diff), support: sup})
			}
		}
		if len(next) > 0 {
			if err := mineDiff(ctx, minSup, next, p, add); err != nil {
				return err
			}
		}
	}
	return nil
}

// mineDiffClass mines the complete diffset subtree of root i — the
// root itself plus every extension by later roots — reporting through
// add. The wide root-level tidset differences happen here, inside the
// worker.
func mineDiffClass(ctx context.Context, minSup int, roots []entry, i int, add func(itemset.Itemset, int)) error {
	e := roots[i]
	p := itemset.Of(e.item)
	add(p, e.sup)
	var children []dnode
	for _, f := range roots[i+1:] {
		if err := ctx.Err(); err != nil {
			return err
		}
		// First diffset level: d(e,f) = tids(e) ∖ tids(f).
		sup := e.sup - e.tids.AndNotCount(f.tids)
		if sup >= minSup {
			children = append(children, dnode{item: f.item, diff: e.tids.Difference(f.tids), support: sup})
		}
	}
	if len(children) > 0 {
		return mineDiff(ctx, minSup, children, p, add)
	}
	return nil
}
