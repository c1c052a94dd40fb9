// Package charm implements the CHARM closed-itemset miner (Zaki &
// Hsiao, SDM 2002), the best-known follow-on to Close/A-Close. It
// explores the itemset-tidset search tree depth-first, using the four
// tidset-containment properties to collapse branches, and a
// subsumption hash to confirm closedness. CHARM does not track
// minimal generators; it serves as an independent producer of FC for
// cross-checking and as an ablation point in the benchmarks.
//
// The first-level equivalence classes (one per frequent root item) are
// mined on a bounded worker pool, sized by the context's parallelism
// hint (else GOMAXPROCS), and merged back through the subsumption
// index in root order. The merge is what makes the output independent
// of the worker count: the IT-tree walk below a root never reads the
// subsumption index (the index only filters output), so each class
// records its candidate insertions in walk order, and the
// single-threaded replay applies the same previously-found-subsumer
// check against the same prior state whatever the number of workers.
// Workers share nothing but the read-only root nodes.
package charm

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"closedrules/internal/bitset"
	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	"closedrules/internal/galois"
	"closedrules/internal/itemset"
	registry "closedrules/internal/miner"
)

// node is one IT-pair of the search tree, with its support cached so
// the pairwise pruning never re-popcounts a tidset.
type node struct {
	items itemset.Itemset
	tids  bitset.Set
	sup   int
}

// attempt is one candidate insertion recorded by a class walk: the
// itemset, its support, and the hash of its tidset (the tidset itself
// is not retained — equal support plus containment already implies
// tidset equality, the hash only buckets).
type attempt struct {
	items itemset.Itemset
	hash  uint64
	sup   int
}

// class is the unit handed to the pool: one root's equivalence class —
// prefix, root index and surviving members — plus the attempts its
// walk records. Child tidsets are not materialized when the class is
// cut: the dispatcher only decides class boundaries (popcounts,
// allocation-free); the worker pays for its own class's intersections,
// so that work runs in parallel and only one class's tidsets are
// resident per worker.
type class struct {
	x        itemset.Itemset
	root     int
	members  []member
	attempts []attempt
	scratch  // held only while run walks the class
}

// scratch is what a class walk reuses: levels[d] serves the walk's
// depth d (the class's own children are depth 1), and cut is the
// members buffer classOf fills below the first level. A finished class
// hands its scratch to the next one to start, so a run holds about one
// scratch per worker, whatever the number of classes.
type scratch struct {
	levels []level
	cut    []member
}

// level is the scratch one depth of a class walk reuses: the child
// nodes, the words their tidsets are carved from, and the skip marks
// of the walk over them. Siblings share it: the walk is depth-first,
// so depth d is rewritten only after the whole subtree below the
// previous sibling has returned, and no node of depth d is read again
// by then.
type level struct {
	nodes []node
	words []uint64
	skip  []bool
}

// collector is the subsumption index the attempts replay through: a
// candidate is closed unless an earlier-found closed itemset with the
// same tidset contains it (Zaki's hash-based closedness check). The
// found sets are kept in a plain list, in replay order; head and next
// chain the list positions of each tidset-hash bucket.
type collector struct {
	fc   []closedset.Closed
	head map[uint64]int // hash → 1 + the last position with that hash
	next []int          // position → 1 + the previous one with its hash
}

// newCollector sizes the index for the number of attempts the replay
// will make, an upper bound on |FC| that charm's pruning keeps close:
// every attempt on MUSHROOMS* at minsup 0.1 is closed.
func newCollector(attempts int) *collector {
	return &collector{
		fc:   make([]closedset.Closed, 0, attempts),
		head: make(map[uint64]int, attempts),
		next: make([]int, 0, attempts),
	}
}

// insert adds x unless a previously found closed itemset with the same
// tidset subsumes it. Equal support plus containment implies equal
// tidsets, so the hash only buckets — it never decides. A repeated x
// is subsumed by its first insertion, so fc holds no duplicates.
func (c *collector) insert(x itemset.Itemset, h uint64, sup int) {
	for e := c.head[h]; e != 0; e = c.next[e-1] {
		if f := c.fc[e-1]; f.Support == sup && f.Items.ContainsAll(x) {
			return // subsumed: x is not closed
		}
	}
	c.next = append(c.next, c.head[h])
	c.fc = append(c.fc, closedset.Closed{Items: x, Support: sup})
	c.head[h] = len(c.fc)
}

// Mine returns the frequent closed itemsets (including the bottom
// h(∅)) at absolute support ≥ minSup.
func Mine(d *dataset.Dataset, minSup int) (*closedset.Set, error) {
	return MineContext(context.Background(), d, minSup)
}

// MineContext is Mine with cancellation: every worker checks ctx at
// each branch extension of its class, so a cancelled context aborts
// the run within one extension step per worker. The worker count is
// the context's parallelism hint, else GOMAXPROCS; one worker walks
// the classes inline.
func MineContext(ctx context.Context, d *dataset.Dataset, minSup int) (*closedset.Set, error) {
	fc, err := mine(ctx, d, minSup)
	if err != nil {
		return nil, err
	}
	return closedset.FromSlice(fc), nil
}

// mine is MineContext's walk and merge. It returns FC as the
// collector's list, in replay order: the registry hand-off sorts that
// list once instead of building a keyed Set only to copy it out.
func mine(ctx context.Context, d *dataset.Dataset, minSup int) ([]closedset.Closed, error) {
	if minSup < 1 {
		return nil, fmt.Errorf("charm: minSup %d < 1", minSup)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dc := d.Context()
	roots := buildRoots(dc, d.NumTransactions(), minSup)

	// First level, on the calling goroutine: the pairwise
	// tidset-containment pruning couples the roots (property 1/3
	// removes later roots, property 2 grows the prefix), so the class
	// boundaries are cut here by classOf — only the descent below each
	// class is farmed out.
	var classes []*class
	skip := make([]bool, len(roots))
	for i := range roots {
		if skip[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x, members := classOf(roots, skip, i, minSup, nil)
		classes = append(classes, &class{x: x, root: i, members: members})
	}

	free := make(chan scratch, len(classes))
	err := registry.RunPool(len(classes), registry.ParallelismFromContext(ctx), func(i int) error {
		return classes[i].run(ctx, roots, minSup, free)
	})
	if err != nil {
		return nil, err
	}

	// Deterministic merge: replay every class's attempts in root order
	// through the subsumption index.
	attempts := 1
	for _, c := range classes {
		attempts += len(c.attempts)
	}
	col := newCollector(attempts)
	addBottom(dc, d, minSup, col)
	for _, c := range classes {
		for _, a := range c.attempts {
			col.insert(a.items, a.hash, a.sup)
		}
	}
	return col.fc, nil
}

// run mines one class subtree, recording candidate insertions in walk
// order (children post-order, then the class prefix itself). It takes
// a finished class's scratch from free if one is there, and leaves its
// own there when done.
func (c *class) run(ctx context.Context, roots []node, minSup int, free chan scratch) error {
	select {
	case c.scratch = <-free:
	default:
	}
	defer func() { free <- c.scratch; c.scratch = scratch{} }()
	if len(c.members) > 0 {
		if err := c.extend(ctx, minSup, c.buildChildren(roots, c.root, c.x, c.members, 1), 1); err != nil {
			return err
		}
	}
	c.attempts = append(c.attempts, attempt{items: c.x, hash: roots[c.root].tids.Hash(), sup: roots[c.root].sup})
	return nil
}

// addBottom inserts h(∅) (support |O|) when it is frequent.
func addBottom(dc *dataset.Context, d *dataset.Dataset, minSup int, col *collector) {
	if d.NumTransactions() >= minSup {
		bottom := galois.Closure(dc, itemset.Empty())
		full := bitset.Full(d.NumTransactions())
		col.insert(bottom, full.Hash(), d.NumTransactions())
	}
}

// buildRoots assembles the level-1 IT-pairs in increasing-support
// order. Universal items (support |O|) belong to every closure; they
// are absorbed into each root's prefix instead of spawning branches.
func buildRoots(dc *dataset.Context, numTx, minSup int) []node {
	var roots []node
	var universal itemset.Itemset
	for it := 0; it < dc.NumItems; it++ {
		sup := dc.Cols[it].Count()
		switch {
		case numTx > 0 && sup == numTx:
			universal = universal.With(it)
		case sup >= minSup:
			roots = append(roots, node{items: itemset.Of(it), tids: dc.Cols[it], sup: sup})
		}
	}
	if universal.Len() > 0 {
		for i := range roots {
			roots[i].items = roots[i].items.Union(universal)
		}
	}
	sortBySupport(roots)
	return roots
}

func sortBySupport(ns []node) {
	slices.SortStableFunc(ns, func(a, b node) int {
		if a.sup != b.sup {
			return cmp.Compare(a.sup, b.sup)
		}
		return a.items.Compare(b.items)
	})
}

// extend processes one level of the IT-tree below a class (Zaki's
// CHARM-EXTEND), recording every candidate closed itemset as an
// attempt. nodes are the class's depth-d children, carved from
// c.levels[d]; each one's own children go to depth d+1.
func (c *class) extend(ctx context.Context, minSup int, nodes []node, depth int) error {
	lv := c.level(depth)
	lv.skip = grow(lv.skip, len(nodes))
	skip := lv.skip
	clear(skip)
	for i := range nodes {
		if skip[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var x itemset.Itemset
		x, c.cut = classOf(nodes, skip, i, minSup, c.cut[:0])
		if len(c.cut) > 0 {
			if err := c.extend(ctx, minSup, c.buildChildren(nodes, i, x, c.cut, depth+1), depth+1); err != nil {
				return err
			}
		}
		c.attempts = append(c.attempts, attempt{items: x, hash: nodes[i].tids.Hash(), sup: nodes[i].sup})
	}
	return nil
}

// level returns the scratch of depth d, adding empty levels as the
// walk first reaches them. The pointer is valid until the next call
// that adds a level, so callers never hold it across a descent.
func (c *class) level(d int) *level {
	for len(c.levels) <= d {
		c.levels = append(c.levels, level{})
	}
	return &c.levels[d]
}

// grow returns s resliced to length n, reallocating only when its
// capacity is short. The contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// member is one surviving child of an equivalence class, identified by
// its index in the parent level; its tidset is not materialized yet.
type member struct {
	j   int
	sup int
}

// probe is the popcount-only kernel of the class-boundary decision:
// the support of ta ∩ tb plus Zaki's two containment flags, read off
// the cached supports without materializing the intersection.
//
//ar:noalloc
func probe(a, b node) (sup int, taSubTb, tbSubTa bool) {
	sup = a.tids.IntersectionCount(b.tids)
	return sup, sup == a.sup, sup == b.sup
}

// classOf computes the equivalence class of nodes[i] at the current
// level: the fully absorbed prefix x and the surviving child members,
// applying Zaki's four tidset-containment properties and marking later
// nodes consumed by properties 1/3 in skip. The pairwise pruning works
// through probe only, so deciding class boundaries allocates no
// tidsets at all — materialization is buildChildren's job, which
// MineContext defers into its workers. Shared by the first-level cut
// in MineContext and the per-class walk (extend). The members are
// appended to buf, which the walk reuses: they are spent by
// buildChildren before the descent below them.
func classOf(nodes []node, skip []bool, i, minSup int, buf []member) (itemset.Itemset, []member) {
	x := nodes[i].items
	members := buf
	for j := i + 1; j < len(nodes); j++ {
		if skip[j] {
			continue
		}
		sup, tiSubTj, tjSubTi := probe(nodes[i], nodes[j])
		switch {
		case tiSubTj && tjSubTi: // property 1: identical tidsets
			x = x.Union(nodes[j].items)
			skip[j] = true
		case tiSubTj: // property 2: ti ⊂ tj — absorb j's items
			x = x.Union(nodes[j].items)
		case tjSubTi: // property 3: tj ⊂ ti — child, drop j
			if sup >= minSup {
				members = append(members, member{j: j, sup: sup})
			}
			skip[j] = true
		default: // property 4: incomparable
			if sup >= minSup {
				members = append(members, member{j: j, sup: sup})
			}
		}
	}
	return x, members
}

// buildChildren materializes the child nodes of one class at the
// given depth: the absorbed prefix x unioned into each member's items
// (every item of x occurs in all of ti ⊇ child tids), sorted by
// support for the next level. The node list and the intersected
// tidsets are carved from c.levels[depth] with AndInto, not allocated:
// the siblings at one depth take turns with that scratch (see level).
func (c *class) buildChildren(nodes []node, i int, x itemset.Itemset, members []member, depth int) []node {
	ti := nodes[i].tids
	width := ti.Width()
	nw := (width + 63) / 64 // words per tidset, as bitset.Over checks
	lv := c.level(depth)
	lv.nodes = grow(lv.nodes, len(members))
	lv.words = grow(lv.words, len(members)*nw)
	for k, mb := range members {
		tids := bitset.Over(lv.words[k*nw:(k+1)*nw:(k+1)*nw], width)
		lv.nodes[k] = node{
			items: nodes[mb.j].items.Union(x),
			tids:  tids.AndInto(ti, nodes[mb.j].tids),
			sup:   mb.sup,
		}
	}
	sortBySupport(lv.nodes)
	return lv.nodes
}
