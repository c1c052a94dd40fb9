package lattice

import (
	"math/rand"
	"reflect"
	"testing"

	"closedrules/internal/bitset"
	"closedrules/internal/closedset"
	"closedrules/internal/itemset"
	"closedrules/internal/naive"
	"closedrules/internal/testgen"
)

// refLattice is the lattice as Build made it before its cover arrays
// were carved: one Diff per cover, one appended list per node in Up and
// Down, and a node map keyed by itemset strings behind NodeIndex, Meet
// and Join. It is the reference the carved build must reproduce.
type refLattice struct {
	nodes    []closedset.Closed
	up, down [][]int
	index    map[string]int
	fc       *closedset.Set
}

func refBuild(fc *closedset.Set) *refLattice {
	nodes := fc.All()
	idx := fc.Index()
	l := &refLattice{
		nodes: nodes,
		up:    make([][]int, len(nodes)),
		down:  make([][]int, len(nodes)),
		index: make(map[string]int, len(nodes)),
		fc:    fc,
	}
	for i, n := range nodes {
		l.index[n.Items.Key()] = i
	}
	cand := bitset.New(len(nodes))
	var ps []bitset.Set
	for i := range nodes {
		idx.UpSet(cand, nodes[i].Items)
		var covers []int
		for j := cand.Next(i + 1); j >= 0; j = cand.Next(j + 1) {
			covers = append(covers, j)
			ps, _ = idx.Postings(ps[:0], nodes[j].Items.Diff(nodes[i].Items))
			cand.AndNotAll(ps, j+1)
		}
		l.up[i] = covers
	}
	for i, covers := range l.up {
		for _, j := range covers {
			l.down[j] = append(l.down[j], i)
		}
	}
	return l
}

func (l *refLattice) nodeIndex(items itemset.Itemset) (int, bool) {
	i, ok := l.index[items.Key()]
	return i, ok
}

func (l *refLattice) meet(a, b int) (int, bool) {
	return l.nodeIndex(l.nodes[a].Items.Intersect(l.nodes[b].Items))
}

func (l *refLattice) join(a, b int) (int, bool) {
	c, ok := l.fc.ClosureOf(l.nodes[a].Items.Union(l.nodes[b].Items))
	if !ok {
		return 0, false
	}
	return l.nodeIndex(c.Items)
}

// TestBuildMatchesReference: on random FCs the carved Up and Down lists
// equal the reference build's, and NodeIndex, Meet and Join answer
// every node pair as the node map did.
func TestBuildMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	for iter := 0; iter < 40; iter++ {
		d := testgen.Random(r, 24, 9, 0.45)
		fc := naive.ClosedItemsets(d.Context(), 1+r.Intn(3))
		l, ref := Build(fc), refBuild(fc)
		if !reflect.DeepEqual(l.Up, ref.up) || !reflect.DeepEqual(l.Down, ref.down) {
			t.Fatalf("iter %d: covers differ\nUp   %v\nref  %v\nDown %v\nref  %v",
				iter, l.Up, ref.up, l.Down, ref.down)
		}
		for a := range l.Nodes {
			if got, ok := l.NodeIndex(l.Nodes[a].Items); !ok || got != a {
				t.Fatalf("iter %d: NodeIndex(%v) = %d,%v want %d", iter, l.Nodes[a].Items, got, ok, a)
			}
			for b := range l.Nodes {
				gm, gok := l.Meet(a, b)
				wm, wok := ref.meet(a, b)
				if gok != wok || (wok && gm != wm) {
					t.Fatalf("iter %d: Meet(%d,%d) = %d,%v want %d,%v", iter, a, b, gm, gok, wm, wok)
				}
				gj, gok := l.Join(a, b)
				wj, wok := ref.join(a, b)
				if gok != wok || (wok && gj != wj) {
					t.Fatalf("iter %d: Join(%d,%d) = %d,%v want %d,%v", iter, a, b, gj, gok, wj, wok)
				}
			}
		}
	}
}

// TestCoverListsAreCapped: each carved list is capped at its length, so
// appending to one reallocates it instead of overwriting its neighbour
// in the shared array.
func TestCoverListsAreCapped(t *testing.T) {
	l, _ := classicFC(t)
	for i := range l.Nodes {
		if cap(l.Up[i]) != len(l.Up[i]) || cap(l.Down[i]) != len(l.Down[i]) {
			t.Fatalf("node %d: Up len/cap %d/%d, Down len/cap %d/%d",
				i, len(l.Up[i]), cap(l.Up[i]), len(l.Down[i]), cap(l.Down[i]))
		}
	}
}

// TestNodeIndexMissesUnclosedItemset: A has a closure, AC, but is not
// closed itself; the first id of A's up-set is AC's, which the equality
// check must reject.
func TestNodeIndexMissesUnclosedItemset(t *testing.T) {
	l, ctx := classicFC(t)
	a := itemset.Of(0)
	if c, ok := naive.ClosedItemsets(ctx, 2).ClosureOf(a); !ok || !c.Items.Equal(itemset.Of(0, 2)) {
		t.Fatalf("closure of A = %v,%v want AC", c.Items, ok)
	}
	if i, ok := l.NodeIndex(a); ok {
		t.Errorf("NodeIndex(A) = %d,true for an unclosed itemset", i)
	}
	if _, ok := l.NodeIndex(itemset.Of(0, 2)); !ok {
		t.Error("NodeIndex(AC) should hit")
	}
}
