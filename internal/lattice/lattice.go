// Package lattice builds the iceberg lattice: the frequent closed
// itemsets ordered by inclusion, with their Hasse diagram (the
// transitive reduction of the containment order). Theorem 2 of the
// paper defines the reduced Luxenburger basis on exactly the edges of
// this diagram.
package lattice

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"closedrules/internal/bitset"
	"closedrules/internal/closedset"
	"closedrules/internal/itemset"
)

// Lattice is the ordered set (FC, ⊆). Nodes are in canonical
// (size, lex) order, so node 0 is the bottom whenever the set is a
// complete mining result.
type Lattice struct {
	Nodes []closedset.Closed
	Up    [][]int // Up[i]: immediate supersets (upper covers) of node i
	Down  [][]int // Down[i]: immediate subsets (lower covers) of node i

	idx *closedset.Index
}

// coverChunk is the length of the arrays each Build worker carves its
// nodes' Up lists from.
const coverChunk = 4096

// Build constructs the lattice and its Hasse diagram from a set of
// closed itemsets. Node ids are the ids of the set's posting index, so
// node i's up-set is the AND of its postings. Walking the up-set in id
// order — ascending size — each node still in it is an upper cover,
// and accepting one strikes that cover's up-set from the rest of the
// walk. A node costs one up-set plus one strike per cover, word-
// parallel over |FC| bits; the walks are independent and spread over
// GOMAXPROCS goroutines. Each worker carves its Up lists from shared
// chunks, and Down is carved from one array counted from Up, so the
// diagram costs a few allocations rather than two per node.
func Build(fc *closedset.Set) *Lattice {
	nodes := fc.All()
	idx := fc.Index()
	l := &Lattice{
		Nodes: nodes,
		Up:    make([][]int, len(nodes)),
		Down:  make([][]int, len(nodes)),
		idx:   idx,
	}

	// walk claims nodes from next until none are left. Every candidate
	// in i's up-set is a superset of i, so it contains the accepted
	// cover j iff it holds j∖i: striking the AND of those postings from
	// the ids after j removes exactly j's up-set.
	var next atomic.Int64
	walk := func() {
		cand := bitset.New(len(nodes))
		var ps []bitset.Set
		var covers, chunk []int
		for i := int(next.Add(1)) - 1; i < len(nodes); i = int(next.Add(1)) - 1 {
			lo := nodes[i].Items
			idx.UpSet(cand, lo)
			covers = covers[:0]
			for j := cand.Next(i + 1); j >= 0; j = cand.Next(j + 1) {
				covers = append(covers, j)
				ps = diffPostings(ps[:0], idx, nodes[j].Items, lo)
				cand.AndNotAll(ps, j+1)
			}
			if len(covers) == 0 {
				continue
			}
			if cap(chunk)-len(chunk) < len(covers) {
				chunk = make([]int, 0, max(coverChunk, len(covers)))
			}
			start := len(chunk)
			chunk = append(chunk, covers...)
			l.Up[i] = chunk[start:len(chunk):len(chunk)]
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(nodes) {
		workers = len(nodes)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			walk()
		}()
	}
	walk()
	wg.Wait()

	// Count each node's lower covers, carve every Down list from one
	// array at its exact capacity, then fill them visiting Up in
	// ascending i, so every Down list is built sorted.
	deg := make([]int, len(nodes))
	edges := 0
	for _, covers := range l.Up {
		for _, j := range covers {
			deg[j]++
		}
		edges += len(covers)
	}
	flat := make([]int, edges)
	for j, pos := 0, 0; j < len(nodes); j++ {
		if deg[j] > 0 {
			l.Down[j] = flat[pos : pos : pos+deg[j]]
			pos += deg[j]
		}
	}
	for i, covers := range l.Up {
		for _, j := range covers {
			l.Down[j] = append(l.Down[j], i)
		}
	}
	return l
}

// diffPostings appends to dst the postings of the items of hi that lo
// lacks — hi∖lo without materializing the difference. Both itemsets are
// sorted and every item of a closed itemset has a posting.
func diffPostings(dst []bitset.Set, idx *closedset.Index, hi, lo itemset.Itemset) []bitset.Set {
	k := 0
	for _, it := range hi {
		for k < len(lo) && lo[k] < it {
			k++
		}
		if k < len(lo) && lo[k] == it {
			continue
		}
		j, _ := idx.Slot(it)
		dst = append(dst, idx.PostingAt(j))
	}
	return dst
}

// Len returns the number of nodes.
func (l *Lattice) Len() int { return len(l.Nodes) }

// NodeIndex returns the index of the node with the given itemset. Ids
// ascend in (size, lex) order, so the first id of the itemset's up-set
// is the itemset itself exactly when it is a node.
func (l *Lattice) NodeIndex(items itemset.Itemset) (int, bool) {
	i := l.idx.First(items, 0)
	if i < 0 || !l.Nodes[i].Items.Equal(items) {
		return 0, false
	}
	return i, true
}

// BottomIndex returns the index of the least node, or -1 when the node
// set has no unique least element.
func (l *Lattice) BottomIndex() int {
	if len(l.Nodes) == 0 {
		return -1
	}
	bot := l.Nodes[0].Items
	for _, n := range l.Nodes[1:] {
		if !n.Items.ContainsAll(bot) {
			return -1
		}
	}
	return 0
}

// MaximalIndices returns the indices of the maximal nodes (no upper
// cover).
func (l *Lattice) MaximalIndices() []int {
	var out []int
	for i, up := range l.Up {
		if len(up) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Edges returns all Hasse edges as (lower, upper) index pairs, in
// deterministic order.
func (l *Lattice) Edges() [][2]int {
	var out [][2]int
	for i, ups := range l.Up {
		for _, j := range ups {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// NumEdges returns the number of Hasse edges.
func (l *Lattice) NumEdges() int {
	n := 0
	for _, ups := range l.Up {
		n += len(ups)
	}
	return n
}

// EdgeConfidence returns supp(upper)/supp(lower) for a Hasse edge — the
// confidence of the reduced Luxenburger rule lower → upper∖lower.
func (l *Lattice) EdgeConfidence(lower, upper int) float64 {
	return float64(l.Nodes[upper].Support) / float64(l.Nodes[lower].Support)
}

// Height returns the length (in edges) of the longest chain.
func (l *Lattice) Height() int {
	depth := make([]int, len(l.Nodes))
	h := 0
	// Nodes are size-ascending: Down edges always point to earlier
	// indices, so one forward sweep is a valid topological pass.
	for i := range l.Nodes {
		for _, d := range l.Down[i] {
			if depth[d]+1 > depth[i] {
				depth[i] = depth[d] + 1
			}
		}
		if depth[i] > h {
			h = depth[i]
		}
	}
	return h
}

// PathProduct returns the product of edge confidences along any path
// from node a down-to-up to node b, which by Luxenburger's lemma equals
// supp(b)/supp(a) independently of the path; ok is false when b is not
// reachable above a.
func (l *Lattice) PathProduct(a, b int) (float64, bool) {
	if a == b {
		return 1, true
	}
	// BFS upward from a.
	type st struct {
		node int
		conf float64
	}
	seen := make(map[int]bool)
	queue := []st{{a, 1}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, up := range l.Up[cur.node] {
			if seen[up] {
				continue
			}
			seen[up] = true
			c := cur.conf * l.EdgeConfidence(cur.node, up)
			if up == b {
				return c, true
			}
			queue = append(queue, st{up, c})
		}
	}
	return 0, false
}

// Meet returns the infimum of two nodes: the largest closed itemset
// contained in both. FC is closed under intersection (intersections of
// closed sets are closed, and support only grows downward), so the
// meet always exists in a complete mining result.
func (l *Lattice) Meet(a, b int) (int, bool) {
	return l.NodeIndex(l.Nodes[a].Items.Intersect(l.Nodes[b].Items))
}

// Join returns the supremum of two nodes: the smallest closed itemset
// containing both, which exists iff their union is frequent: the first
// id of the union's up-set.
func (l *Lattice) Join(a, b int) (int, bool) {
	i := l.idx.First(l.Nodes[a].Items.Union(l.Nodes[b].Items), 0)
	return i, i >= 0
}

// DOT renders the Hasse diagram in Graphviz format; names may be nil.
func (l *Lattice) DOT(names []string) string {
	var b strings.Builder
	b.WriteString("digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n")
	for i, n := range l.Nodes {
		label := n.Items.Format(names)
		fmt.Fprintf(&b, "  n%d [label=%q];\n", i, fmt.Sprintf("%s (%d)", label, n.Support))
	}
	for _, e := range l.Edges() {
		fmt.Fprintf(&b, "  n%d -> n%d [label=%.2f];\n", e[0], e[1], l.EdgeConfidence(e[0], e[1]))
	}
	b.WriteString("}\n")
	return b.String()
}
