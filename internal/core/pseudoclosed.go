// Package core implements the primary contribution of the ICDE'2000
// paper: bases for association rules built on frequent closed
// itemsets.
//
//   - Theorem 1: the Duquenne–Guigues basis for exact (100% confidence)
//     rules, defined on the frequent pseudo-closed itemsets;
//   - Theorem 2: the Luxenburger basis for approximate rules, defined
//     on pairs of comparable frequent closed itemsets, and its
//     transitive reduction on the Hasse diagram of the iceberg lattice;
//   - the inference machinery (LinClosure over implications, path
//     products over the lattice) that constructively proves the basis
//     property: every valid rule, with its support and confidence, is
//     derivable from the bases alone;
//   - the informative (min-max) bases on minimal generators, the
//     follow-on refinement by the same authors (SIGKDD Expl. 2000),
//     included as an extension.
package core

import (
	"context"
	"sort"

	"closedrules/internal/bitset"
	"closedrules/internal/closedset"
	"closedrules/internal/itemset"
)

// Pseudo is a frequent pseudo-closed itemset together with its closure
// and support: the raw material of the Duquenne–Guigues basis.
type Pseudo struct {
	Items   itemset.Itemset
	Closure itemset.Itemset
	Support int // supp(Items) = supp(Closure)
}

// PseudoClosedSets computes the frequent pseudo-closed itemsets of
// Theorem 1 — a frequent itemset I is pseudo-closed iff it is not
// closed and h(Q) ⊆ I for every frequent pseudo-closed Q ⊊ I; ∅ is
// pseudo-closed iff h(∅) ≠ ∅ — from the frequent closed itemsets
// alone. numTx is |O|; FC must be complete down to the mining
// threshold, bottom included. Results are in size-ascending canonical
// order.
//
// The enumeration is Ganter's NextClosure in lectic order over L•, the
// closure under the implications P → h(P) of the pseudo-closed sets
// found so far, fired by premises strictly inside the set. The
// L•-closed sets are exactly the closed and the pseudo-closed sets, so
// every frequent one that is not closed is recorded together with its
// implication. Every candidate lies lectically beyond every recorded
// premise, and so does each superset it grows into, so no premise ever
// equals the set being closed and strictness needs no test.
//
// Frequency and h come from FC's posting index (closedset.Index): the
// AND of X's postings (its FC extent) is non-empty iff X is frequent,
// and its lowest id is h(X).
// Because the implications hold in the data, L• keeps the FC extent of
// a frequent set, so the extent of a NextClosure candidate
// (A ∩ {<i}) ∪ {i} — one probe of the prefix extent against i's
// posting — is also the extent of its L•-closure. A failed probe
// proves every L•-closed set with that prefix infrequent, and the
// enumeration moves straight to i−1.
//
// ctx is checked once per enumerated set.
func PseudoClosedSets(ctx context.Context, numTx int, fc *closedset.Set) ([]Pseudo, error) {
	if numTx <= 0 || fc.Len() == 0 {
		return nil, nil // ∅ is infrequent, hence so is everything
	}
	e := newEnumerator(fc)
	var out []Pseudo
	// record checks the current set a, whose FC extent tops the stack.
	record := func(a bitset.Set) {
		c := e.closed[e.ext[len(e.elems)].Next(0)]
		if len(c.Items) == a.Count() {
			return // closed, not pseudo-closed
		}
		out = append(out, Pseudo{Items: e.itemsOf(a), Closure: c.Items, Support: c.Support})
		e.premises = append(e.premises, a.Clone())
		e.conclusions = append(e.conclusions, e.indexSet(c.Items))
	}

	// L•(∅) = ∅ is the lectically first set; its extent is all of FC.
	a := bitset.New(len(e.idx.Items()))
	record(a)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !e.next(a) {
			break
		}
		record(a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Items.Compare(out[j].Items) < 0 })
	return out, nil
}

// enumerator holds the FC index and the NextClosure state. Itemsets
// are bitsets over item indices 0…k−1, the index's slots of the items
// occurring in FC, ascending; lectic order on indices is lectic order
// on items.
type enumerator struct {
	closed []closedset.Closed // FC in (size, lex) order: id → set
	idx    *closedset.Index   // item index ↔ item, and each slot's posting

	// elems lists the current set A in ascending order; ext[t] is the
	// FC extent of its first t elements, so ext[0] is all of FC.
	elems []int
	ext   []bitset.Set

	premises    []bitset.Set // pseudo-closed sets found so far
	conclusions []bitset.Set // their closures
	cand        bitset.Set   // scratch for the candidate under L•
	diff        bitset.Set   // scratch for the lectic prefix test
}

func newEnumerator(fc *closedset.Set) *enumerator {
	idx := fc.Index()
	k := len(idx.Items())
	return &enumerator{
		closed: fc.All(),
		idx:    idx,
		ext:    []bitset.Set{bitset.Full(idx.Len())},
		cand:   bitset.New(k),
		diff:   bitset.New(k),
	}
}

// next advances a to the lectically next frequent L•-closed set and
// reports whether there is one. On success e.elems lists the new set
// and e.ext[len(e.elems)] holds its FC extent.
func (e *enumerator) next(a bitset.Set) bool {
	t := len(e.elems) // |A ∩ {0…i}| at the top of each iteration
	for i := len(e.idx.Items()) - 1; i >= 0; i-- {
		if a.Has(i) {
			t--
			continue
		}
		// (A ∩ {<i}) ∪ {i} is frequent iff A's prefix extent meets
		// posting[i]; if not, no L•-closed set with this prefix is.
		if !e.ext[t].IntersectionAtLeast(e.idx.PostingAt(i), 1) {
			continue
		}
		e.cand.Clear()
		for _, x := range e.elems[:t] {
			e.cand.Add(x)
		}
		e.cand.Add(i)
		e.closeUnder(e.cand)
		// Lectic successor test: L• added no element below i that A
		// lacks, i.e. the smallest element of cand ∖ A is i itself.
		if e.diff.AndNotInto(e.cand, a).Next(0) != i {
			continue
		}
		a.Copy(e.cand)
		e.advance(t, i, a)
		return true
	}
	return false
}

// advance rebuilds the extent stack for the new set a, which shares
// its first t elements with the old one and has i as element t. Every
// prefix from (A ∩ {<i}) ∪ {i} on has the same extent, because L•
// keeps extents.
func (e *enumerator) advance(t, i int, a bitset.Set) {
	e.elems = e.elems[:t]
	a.ForEach(func(x int) bool {
		if x >= i {
			e.elems = append(e.elems, x)
		}
		return true
	})
	for len(e.ext) <= len(e.elems) {
		e.ext = append(e.ext, bitset.New(len(e.closed)))
	}
	e.ext[t+1].AndInto(e.ext[t], e.idx.PostingAt(i))
	for j := t + 2; j <= len(e.elems); j++ {
		e.ext[j].Copy(e.ext[t+1])
	}
}

// closeUnder replaces y with its closure under the recorded
// implications: the least superset that contains h(P) for every
// recorded pseudo-closed P ⊆ it.
func (e *enumerator) closeUnder(y bitset.Set) {
	for changed := true; changed; {
		changed = false
		for j, p := range e.premises {
			c := e.conclusions[j]
			if p.IsSubsetOf(y) && !c.IsSubsetOf(y) {
				y.Or(c)
				changed = true
			}
		}
	}
}

// itemsOf maps an item-index bitset back to an itemset.
func (e *enumerator) itemsOf(a bitset.Set) itemset.Itemset {
	out := make(itemset.Itemset, 0, a.Count())
	a.ForEach(func(x int) bool {
		out = append(out, e.idx.Items()[x])
		return true
	})
	return out
}

// indexSet maps a closed itemset to its item-index bitset.
func (e *enumerator) indexSet(items itemset.Itemset) bitset.Set {
	s := bitset.New(len(e.idx.Items()))
	for _, it := range items {
		j, _ := e.idx.Slot(it)
		s.Add(j)
	}
	return s
}
