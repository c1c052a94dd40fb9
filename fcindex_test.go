package closedrules

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"closedrules/internal/core"
	"closedrules/internal/galois"
	"closedrules/internal/itemset"
	"closedrules/internal/naive"
	"closedrules/internal/testgen"
)

// fcIndexCase is one dataset and threshold the FC-index readers are
// checked on.
type fcIndexCase struct {
	name   string
	d      *Dataset
	minSup int
}

// fcIndexCases returns the golden fixture's dataset (the paper's
// example) plus random sparse and correlated internal/testgen data at
// several thresholds.
func fcIndexCases(t *testing.T) []fcIndexCase {
	t.Helper()
	cases := []fcIndexCase{{"classic", classic(t), 2}, {"classic-1", classic(t), 1}}
	r := rand.New(rand.NewSource(1607))
	for i := 0; i < 30; i++ {
		cases = append(cases, fcIndexCase{fmt.Sprintf("random-%d", i), testgen.Random(r, 24, 10, 0.45), 1 + r.Intn(3)})
	}
	for i := 0; i < 10; i++ {
		cases = append(cases, fcIndexCase{fmt.Sprintf("correlated-%d", i), testgen.Correlated(r, 40, 4, 3, 0.1), 2 + r.Intn(4)})
	}
	// Hundreds of closed sets: postings span several 64-bit words.
	for i := 0; i < 4; i++ {
		cases = append(cases, fcIndexCase{fmt.Sprintf("wide-%d", i), testgen.Correlated(r, 150, 7, 3, 0.3), 2})
	}
	return cases
}

// TestFCIndexReadersMatchOracles checks every reader of the FC posting
// index — the Hasse diagram, h(X), the maximal sets and the
// Duquenne–Guigues basis — against brute-force oracles that never
// touch the index. CI runs it at -cpu=1,4, which covers both the
// sequential and the fanned-out lattice build.
func TestFCIndexReadersMatchOracles(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(1608))
	for _, tc := range fcIndexCases(t) {
		res, err := MineContext(ctx, tc.d, WithAbsoluteMinSupport(tc.minSup))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fc := res.ClosedItemsets()
		checkHasse(t, tc.name, res, fc)
		checkClosure(t, tc.name, r, res, fc)
		checkMaximal(t, tc.name, res, fc)
		checkDG(t, tc.name, res)
	}
}

// checkHasse compares the lattice's Up and Down lists with the
// transitive reduction of ⊂ computed pairwise.
func checkHasse(t *testing.T, name string, res *Result, fc []ClosedItemset) {
	t.Helper()
	n := len(fc)
	below := make([][]bool, n) // below[a][b]: fc[a] ⊂ fc[b]
	for a := range below {
		below[a] = make([]bool, n)
		for b := range below[a] {
			below[a][b] = a != b && fc[b].Items.ContainsAll(fc[a].Items)
		}
	}
	up := make([][]int, n)
	down := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !below[i][j] {
				continue
			}
			cover := true
			for k := 0; k < n && cover; k++ {
				cover = !(below[i][k] && below[k][j])
			}
			if cover {
				up[i] = append(up[i], j)
				down[j] = append(down[j], i)
			}
		}
	}
	lat := res.latticeOf()
	for i := 0; i < n; i++ {
		if !lat.Nodes[i].Items.Equal(fc[i].Items) {
			t.Fatalf("%s: lattice node %d is %v, FC has %v", name, i, lat.Nodes[i].Items, fc[i].Items)
		}
		if !slices.Equal(lat.Up[i], up[i]) || !slices.Equal(lat.Down[i], down[i]) {
			t.Fatalf("%s: node %v: Up %v Down %v, transitive reduction gives Up %v Down %v",
				name, fc[i].Items, lat.Up[i], lat.Down[i], up[i], down[i])
		}
	}
}

// checkClosure compares Closure with the first closed superset in
// canonical order, on ∅, every closed set, and random itemsets that
// mix frequent items with infrequent and absent ones.
func checkClosure(t *testing.T, name string, r *rand.Rand, res *Result, fc []ClosedItemset) {
	t.Helper()
	numItems := res.Dataset().NumItems()
	probes := []Itemset{itemset.Of(), itemset.Of(numItems), itemset.Of(numItems + 100)}
	for _, c := range fc {
		probes = append(probes, c.Items)
	}
	for i := 0; i < 60; i++ {
		var items []int
		for it := 0; it <= numItems; it++ { // numItems itself occurs nowhere
			if r.Float64() < 0.25 {
				items = append(items, it)
			}
		}
		probes = append(probes, itemset.Of(items...))
	}
	for _, x := range probes {
		want, wantOK := ClosedItemset{}, false
		for _, c := range fc {
			if c.Items.ContainsAll(x) {
				want, wantOK = c, true
				break
			}
		}
		got, ok := res.Closure(x)
		if ok != wantOK || !got.Items.Equal(want.Items) || got.Support != want.Support {
			t.Fatalf("%s: Closure(%v) = %v:%d,%v; linear scan gives %v:%d,%v",
				name, x, got.Items, got.Support, ok, want.Items, want.Support, wantOK)
		}
	}
}

// checkMaximal compares MaximalItemsets with the pairwise definition.
func checkMaximal(t *testing.T, name string, res *Result, fc []ClosedItemset) {
	t.Helper()
	var want []Itemset
	for i, ci := range fc {
		maximal := true
		for j, cj := range fc {
			if i != j && cj.Items.ContainsAll(ci.Items) {
				maximal = false
				break
			}
		}
		if maximal {
			want = append(want, ci.Items)
		}
	}
	got := res.MaximalItemsets()
	if len(got) != len(want) {
		t.Fatalf("%s: %d maximal sets, pairwise scan gives %d", name, len(got), len(want))
	}
	for i := range want {
		if !got[i].Items.Equal(want[i]) {
			t.Fatalf("%s: maximal set %d is %v, pairwise scan gives %v", name, i, got[i].Items, want[i])
		}
	}
}

// checkDG compares the Duquenne–Guigues basis with one assembled from
// Theorem 1's definition over the dataset: each frequent pseudo-closed
// P, by brute force, yields P → h(P)∖P with supp(P).
func checkDG(t *testing.T, name string, res *Result) {
	t.Helper()
	c := res.Dataset().Context()
	var want []string
	for _, p := range naive.PseudoClosed(c, res.MinSupport()) {
		closure, sup := galois.ClosureWithSupport(c, p)
		want = append(want, dgLine(p, closure, sup))
	}
	rules, err := core.DuquenneGuigues(context.Background(), res.Dataset().NumTransactions(), res.fc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var got []string
	for _, ru := range rules {
		got = append(got, dgLine(ru.Antecedent, ru.Antecedent.Union(ru.Consequent), ru.Support))
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: DG basis\n%v\nbrute force gives\n%v", name, got, want)
	}
}

func dgLine(p, closure Itemset, sup int) string {
	return fmt.Sprintf("%v→%v:%d", p, closure.Diff(p), sup)
}
