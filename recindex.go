package closedrules

import (
	"fmt"
	"math"

	"closedrules/internal/rules"
)

// recIndex holds the basis rules Recommend serves, each with its lift
// precomputed, grouped by one key item of the antecedent in CSR form,
// so a lookup reads only the rules that can apply to the observed
// basket instead of every served rule.
//
// A rule's key item is the antecedent item occurring in the fewest
// served antecedents (the smallest such item on ties), which keeps the
// groups a basket reads as short as the data allows. Group 0 holds the
// rules with an empty antecedent, which apply to every basket; group
// i+1 holds the rules keyed on item i. Group g is ids[off[g]:off[g+1]],
// and ids within a group ascend.
type recIndex struct {
	rules []Rule    // exact basis rules, then the approximate ones at ≥ minConf
	lift  []float64 // rules.ByLift per rule, so rankings match TopBy bit for bit
	ids   []int32
	off   []int32
}

// newRecIndex builds the index over the exact rules plus the
// approximate rules with confidence ≥ minConf, in that order, with
// every slice allocated at its exact size.
func newRecIndex(exact, approx []Rule, minConf float64, numTx int) (recIndex, error) {
	served := func(visit func(Rule)) {
		for _, r := range exact {
			visit(r)
		}
		for _, r := range approx {
			if r.Confidence() >= minConf {
				visit(r)
			}
		}
	}
	n, maxItem := 0, -1
	served(func(r Rule) {
		n++
		if a := r.Antecedent; len(a) > 0 {
			maxItem = max(maxItem, a[len(a)-1])
		}
	})
	if n > math.MaxInt32 {
		return recIndex{}, fmt.Errorf("closedrules: %d basis rules exceed the recommend index's int32 ids", n)
	}

	ix := recIndex{
		rules: make([]Rule, 0, n),
		lift:  make([]float64, 0, n),
		ids:   make([]int32, n),
		off:   make([]int32, maxItem+3),
	}
	freq := make([]int32, maxItem+1) // served antecedents holding each item
	score := rules.ByLift(numTx)
	served(func(r Rule) {
		ix.rules = append(ix.rules, r)
		ix.lift = append(ix.lift, score(r))
		for _, x := range r.Antecedent {
			freq[x]++
		}
	})

	group := func(a Itemset) int {
		if len(a) == 0 {
			return 0
		}
		key := a[0]
		for _, x := range a[1:] {
			if freq[x] < freq[key] {
				key = x
			}
		}
		return key + 1
	}
	// Count each group's size into off[g], turn the counts into
	// inclusive prefix sums (group ends), then place ids back to front,
	// decrementing each group's end down to its start.
	for _, r := range ix.rules {
		ix.off[group(r.Antecedent)]++
	}
	for g := 1; g < len(ix.off); g++ {
		ix.off[g] += ix.off[g-1]
	}
	for i := n - 1; i >= 0; i-- {
		g := group(ix.rules[i].Antecedent)
		ix.off[g]--
		ix.ids[ix.off[g]] = int32(i)
	}
	return ix, nil
}

// top returns up to k rules applicable to observed — antecedent
// covered, consequent not already fully observed — ranked as
// rules.TopBy(…, rules.ByLift(numTx)) ranks them: lift descending,
// then canonical rule order, then served order. It reads the empty
// group and the group of each observed item, skipping items no served
// antecedent holds (negative ids included), and keeps the best k in a
// heap that grows only with hits, so any k costs no more than the
// rules that apply. observed must be sorted; a repeated item is read
// once.
func (ix *recIndex) top(observed Itemset, k int) []Rule {
	var buf [32]int32 // a basket's hits usually fit; more spill to the heap
	h := ix.scan(buf[:0], 0, observed, k)
	prev := -1
	for _, x := range observed {
		if x < 0 || x == prev || x >= len(ix.off)-2 {
			continue
		}
		prev = x
		h = ix.scan(h, x+1, observed, k)
	}
	// Heap sort: each pass moves the worst remaining rule to the back.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		ix.siftDown(h[:end], 0)
	}
	if len(h) == 0 {
		return nil
	}
	out := make([]Rule, len(h))
	for i, id := range h {
		out[i] = ix.rules[id]
	}
	return out
}

// scan offers group g's applicable rules to the bounded heap h, whose
// root is the worst rule kept.
func (ix *recIndex) scan(h []int32, g int, observed Itemset, k int) []int32 {
	for _, id := range ix.ids[ix.off[g]:ix.off[g+1]] {
		r := &ix.rules[id]
		if !observed.ContainsAll(r.Antecedent) || observed.ContainsAll(r.Consequent) {
			continue
		}
		switch {
		case len(h) < k:
			h = append(h, id)
			ix.siftUp(h, len(h)-1)
		case ix.before(id, h[0]):
			h[0] = id
			ix.siftDown(h, 0)
		}
	}
	return h
}

// before reports whether rule a ranks ahead of rule b.
func (ix *recIndex) before(a, b int32) bool {
	if la, lb := ix.lift[a], ix.lift[b]; la != lb {
		return la > lb
	}
	if c := ix.rules[a].Compare(ix.rules[b]); c != 0 {
		return c < 0
	}
	return a < b
}

func (ix *recIndex) siftUp(h []int32, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !ix.before(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (ix *recIndex) siftDown(h []int32, i int) {
	for {
		w := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && ix.before(h[w], h[c]) {
				w = c
			}
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// bytes is the index's own footprint beyond the rules: lifts, ids and
// group offsets.
func (ix *recIndex) bytes() int64 {
	return int64(len(ix.lift))*8 + int64(len(ix.ids)+len(ix.off))*4
}
