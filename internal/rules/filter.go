package rules

import (
	"sort"

	"closedrules/internal/itemset"
)

// Filter returns the rules satisfying pred, preserving order.
func Filter(list []Rule, pred func(Rule) bool) []Rule {
	var out []Rule
	for _, r := range list {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// WithItem keeps rules mentioning the item on either side.
func WithItem(list []Rule, item int) []Rule {
	return Filter(list, func(r Rule) bool {
		return r.Antecedent.Contains(item) || r.Consequent.Contains(item)
	})
}

// WithConsequentItem keeps rules whose consequent contains the item —
// "what predicts item x?".
func WithConsequentItem(list []Rule, item int) []Rule {
	return Filter(list, func(r Rule) bool { return r.Consequent.Contains(item) })
}

// WithAntecedentSubsetOf keeps rules whose antecedent is contained in
// the given itemset — the rules applicable to a partially observed
// object.
func WithAntecedentSubsetOf(list []Rule, observed itemset.Itemset) []Rule {
	return Filter(list, func(r Rule) bool { return observed.ContainsAll(r.Antecedent) })
}

// MinSupport keeps rules with absolute support ≥ n.
func MinSupport(list []Rule, n int) []Rule {
	return Filter(list, func(r Rule) bool { return r.Support >= n })
}

// MinConfidence keeps rules with confidence ≥ c, preserving order. It
// counts the kept rules first and allocates the result once, at its
// exact size (nil when nothing is kept): thresholding a memoized basis
// of ~47k rules would otherwise regrow the result ~20 times.
func MinConfidence(list []Rule, c float64) []Rule {
	n := 0
	for _, r := range list {
		if r.Confidence() >= c {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Rule, 0, n)
	for _, r := range list {
		if r.Confidence() >= c {
			out = append(out, r)
		}
	}
	return out
}

// TopBy returns the k rules maximizing score (stable on ties by the
// canonical rule order); k ≤ 0 or k ≥ len returns a sorted copy of
// everything. score is called exactly once per rule — the scores are
// precomputed before the sort, not re-derived inside the comparator —
// so an expensive score (lift recomputes the full metric set) costs
// O(n), not O(n log n), per ranking.
func TopBy(list []Rule, k int, score func(Rule) float64) []Rule {
	type scored struct {
		r Rule
		s float64
	}
	dec := make([]scored, len(list))
	for i, r := range list {
		dec[i] = scored{r: r, s: score(r)}
	}
	sort.SliceStable(dec, func(i, j int) bool {
		if dec[i].s != dec[j].s {
			return dec[i].s > dec[j].s
		}
		return dec[i].r.Compare(dec[j].r) < 0
	})
	if k <= 0 || k > len(dec) {
		k = len(dec)
	}
	out := make([]Rule, k)
	for i := range out {
		out[i] = dec[i].r
	}
	return out
}

// ByLift is a score function for TopBy ranking by lift; rules lacking
// a consequent support rank last.
func ByLift(numTx int) func(Rule) float64 {
	return func(r Rule) float64 {
		if r.ConsequentSupport <= 0 || numTx <= 0 {
			return -1
		}
		m, err := ComputeMetrics(r, numTx)
		if err != nil {
			return -1
		}
		return m.Lift
	}
}
