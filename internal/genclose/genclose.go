// Package genclose mines the frequent closed itemsets and their
// minimal generators simultaneously, in one traversal — the
// construction of "Simultaneous mining of frequent closed itemsets and
// their generators" (Anh Tran et al., 2014) adapted to this library's
// vertical bitset engine.
//
// The traversal is level-wise over the minimal generators (the free
// sets): a candidate of size k joins two free sets of size k-1 and is
// itself free exactly when its support is strictly below the support
// of every immediate subset. Unlike A-Close — which counts candidates
// with one trie pass over the transaction list per level and computes
// closures in a separate terminal pass — every support here is a
// popcount probe on cached tidsets (no database passes after the
// initial binary context), and each closed node is extended with its
// closure the moment its first generator is discovered: generators
// with equal tidsets share one closure computation, so h(·) runs once
// per closed itemset, interleaved with the traversal instead of after
// it. The result therefore carries generators natively, which is what
// the generic and informative bases (and the basis registry's
// generator requirement) consume.
//
// The traversal runs on the calling goroutine. Fanning each level's
// candidates out to a worker pool did not pay: it measured level on
// dense data and up to ~1.7x slower on sparse data, where a candidate
// is one popcount and the dispatch costs more than the work.
package genclose

import (
	"context"
	"fmt"

	"closedrules/internal/bitset"
	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	"closedrules/internal/galois"
	"closedrules/internal/itemset"
	"closedrules/internal/levelwise"
)

// node is one free set (minimal generator) of the current level, with
// its tidset materialized and its support cached.
type node struct {
	items itemset.Itemset
	tids  bitset.Set
	sup   int
}

// probe is the popcount-only support kernel of the candidate
// evaluation: |tids(prefix) ∩ tids(item)| read off the cached bitsets
// without materializing the intersection, so candidates pruned by
// support or freeness allocate nothing.
//
//ar:noalloc
func probe(prev, col bitset.Set) int {
	return prev.IntersectionCount(col)
}

// Mine returns the frequent closed itemsets — with their minimal
// generators — at absolute support ≥ minSup, including the bottom
// h(∅) with generator ∅.
func Mine(d *dataset.Dataset, minSup int) (*closedset.Set, error) {
	return MineContext(context.Background(), d, minSup)
}

// MineContext is Mine with cancellation: ctx is checked per candidate
// inside every level, so a cancelled context aborts the run within one
// candidate evaluation.
func MineContext(ctx context.Context, d *dataset.Dataset, minSup int) (*closedset.Set, error) {
	if minSup < 1 {
		return nil, fmt.Errorf("genclose: minSup %d < 1", minSup)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dc := d.Context()
	nTx := d.NumTransactions()
	fc := closedset.New()
	m := &miner{ctx: ctx, dc: dc, minSup: minSup, fc: fc, idx: map[uint64][]closureEntry{}}

	// The empty set is the level-0 generator: free by definition, its
	// closure is the bottom h(∅) whenever it is frequent.
	if nTx >= minSup {
		fc.AddGenerator(galois.Closure(dc, itemset.Empty()), nTx, itemset.Empty())
	}

	// Level 1: an item is free iff its support is strictly below
	// supp(∅) = |O|; items occurring in every transaction belong to the
	// bottom's closure instead.
	var level []node
	for it := 0; it < dc.NumItems; it++ {
		sup := dc.Cols[it].Count()
		if sup < minSup || sup == nTx {
			continue
		}
		level = append(level, node{items: itemset.Of(it), tids: dc.Cols[it], sup: sup})
	}
	if err := m.emitLevel(level); err != nil {
		return nil, err
	}

	for k := 2; len(level) >= 2; k++ {
		next, err := m.nextLevel(level, k)
		if err != nil {
			return nil, err
		}
		if err := m.emitLevel(next); err != nil {
			return nil, err
		}
		level = next
	}
	return fc, nil
}

// miner carries the per-run state of one traversal.
type miner struct {
	ctx    context.Context
	dc     *dataset.Context
	minSup int
	fc     *closedset.Set
	// idx is the closure index: tidset hash → discovered (tidset,
	// closure) pairs. Equal tidsets imply equal closures, so every
	// closed itemset pays for exactly one Intent computation no matter
	// how many generators reach it, across all levels.
	idx map[uint64][]closureEntry
}

type closureEntry struct {
	tids    bitset.Set
	closure itemset.Itemset
}

// lookup returns the cached closure of a tidset, if discovered.
func (m *miner) lookup(tids bitset.Set, h uint64) (itemset.Itemset, bool) {
	for _, e := range m.idx[h] {
		if e.tids.Equal(tids) {
			return e.closure, true
		}
	}
	return nil, false
}

// nextLevel evaluates the level-k candidates: the apriori-gen join of
// the level-(k-1) free sets, pruned to candidates whose every
// immediate subset is itself free (subsets of free sets are free, so a
// missing subset disqualifies a minimal generator outright). Each
// surviving candidate is probed for support against the prefix
// parent's tidset and kept when frequent and free; only survivors
// materialize their tidset.
func (m *miner) nextLevel(level []node, k int) ([]node, error) {
	byKey := make(map[string]*node, len(level))
	items := make([]itemset.Itemset, len(level))
	for i := range level {
		byKey[level[i].items.Key()] = &level[i]
		items[i] = level[i].items
	}
	levelwise.SortLex(items)
	cands := levelwise.Join(items)
	cands = levelwise.PruneBySubsets(cands, levelwise.Keys(items))

	var next []node
	for _, cand := range cands {
		if err := m.ctx.Err(); err != nil {
			return nil, err
		}
		prefix := byKey[cand[:k-1].Key()]
		sup := probe(prefix.tids, m.dc.Cols[cand[k-1]])
		if sup < m.minSup || !m.free(byKey, cand, sup) {
			continue
		}
		next = append(next, node{
			items: cand,
			tids:  bitset.New(prefix.tids.Width()).AndInto(prefix.tids, m.dc.Cols[cand[k-1]]),
			sup:   sup,
		})
	}
	return next, nil
}

// free reports whether a candidate with the given support is a free
// set: strictly smaller support than every immediate subset. All
// subsets are present in prev (PruneBySubsets guarantees it).
func (m *miner) free(prev map[string]*node, cand itemset.Itemset, sup int) bool {
	sub := make(itemset.Itemset, 0, len(cand)-1)
	for drop := 0; drop < len(cand); drop++ {
		sub = sub[:0]
		sub = append(sub, cand[:drop]...)
		sub = append(sub, cand[drop+1:]...)
		if prev[sub.Key()].sup == sup {
			return false
		}
	}
	return true
}

// emitLevel extends the closed nodes reached by one level of
// generators, in level order: a tidset already in the closure index
// reuses its closure, a new one gets h(·) computed and indexed, and
// the generator is recorded under that closure. This is the
// "simultaneous" half of GenClose: closures interleave with the
// traversal, once per closed itemset.
func (m *miner) emitLevel(level []node) error {
	for i := range level {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		tids := level[i].tids
		h := tids.Hash()
		cl, ok := m.lookup(tids, h)
		if !ok {
			cl = galois.Intent(m.dc, tids)
			m.idx[h] = append(m.idx[h], closureEntry{tids: tids, closure: cl})
		}
		m.fc.AddGenerator(cl, level[i].sup, level[i].items)
	}
	return nil
}
