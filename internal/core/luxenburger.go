package core

import (
	"fmt"

	"closedrules/internal/closedset"
	"closedrules/internal/itemset"
	"closedrules/internal/lattice"
	"closedrules/internal/rules"
)

// LuxenburgerOptions controls the construction of the approximate-rule
// bases of Theorem 2.
type LuxenburgerOptions struct {
	// MinConfidence keeps only rules with confidence ≥ this threshold.
	MinConfidence float64
	// IncludeEmptyAntecedent keeps rules whose antecedent is the empty
	// closed set (possible when h(∅) = ∅ ∈ FC). Conventional rule
	// listings exclude them; support derivation along lattice paths
	// needs them, so the inference engine always works on the
	// unfiltered diagram.
	IncludeEmptyAntecedent bool
}

// LuxenburgerFull builds the (unreduced) Luxenburger basis: one rule
// I1 → I2∖I1 for every pair of frequent closed itemsets I1 ⊂ I2. For
// comparable closed itemsets supports strictly decrease upward, so
// every rule is approximate (confidence < 1).
func LuxenburgerFull(fc *closedset.Set, opt LuxenburgerOptions) ([]rules.Rule, error) {
	if err := checkConf(opt.MinConfidence); err != nil {
		return nil, err
	}
	all := fc.All()
	p := pairRules{nodes: all, idx: fc.Index()}
	var out []rules.Rule
	for i, lo := range all {
		if lo.Items.Len() == 0 && !opt.IncludeEmptyAntecedent {
			continue
		}
		for j, hi := range all {
			if i == j || !hi.Items.ContainsAll(lo.Items) || len(hi.Items) == len(lo.Items) {
				continue
			}
			if keepPair(lo.Support, hi.Support, opt) {
				out = append(out, p.rule(lo.Items, lo.Support, hi))
			}
		}
	}
	rules.Sort(out)
	return out, nil
}

// LuxenburgerReduction builds the transitive reduction of the
// Luxenburger basis (Theorem 2, second part): only the Hasse edges of
// the iceberg lattice. Every approximate rule's support and confidence
// is recoverable from these edges by path products, which is what
// Engine implements. lat must be lattice.Build(fc).
//
// The edges come out in canonical rule order, so nothing is sorted:
// node ids ascend in (size, lex) order, so the antecedents ascend; a
// node's upper covers ascend in the same order and all hold the node's
// items, and removing a common subset keeps that order among the
// consequents. One counting pass sizes the output and a single
// consequent array.
func LuxenburgerReduction(lat *lattice.Lattice, fc *closedset.Set, opt LuxenburgerOptions) ([]rules.Rule, error) {
	if err := checkConf(opt.MinConfidence); err != nil {
		return nil, err
	}
	n, size := 0, 0
	edges := func(visit func(lo, hi closedset.Closed)) {
		for i, ups := range lat.Up {
			lo := lat.Nodes[i]
			if lo.Items.Len() == 0 && !opt.IncludeEmptyAntecedent {
				continue
			}
			for _, j := range ups {
				if hi := lat.Nodes[j]; keepPair(lo.Support, hi.Support, opt) {
					visit(lo, hi)
				}
			}
		}
	}
	edges(func(lo, hi closedset.Closed) {
		n++
		size += hi.Items.Len() - lo.Items.Len()
	})
	if n == 0 {
		return nil, nil
	}
	p := pairRules{nodes: lat.Nodes, idx: fc.Index(), arena: make([]int, 0, size)}
	out := make([]rules.Rule, 0, n)
	edges(func(lo, hi closedset.Closed) {
		out = append(out, p.rule(lo.Items, lo.Support, hi))
	})
	return out, nil
}

// keepPair reports whether a rule from an antecedent of support anteSup
// to a closed itemset of support sup passes the confidence threshold,
// as rules.Rule.Confidence measures it.
func keepPair(anteSup, sup int, opt LuxenburgerOptions) bool {
	return rules.Rule{Support: sup, AntecedentSupport: anteSup}.Confidence() >= opt.MinConfidence
}

// consChunk is the length of the arrays pairRules carves consequents
// from when its caller did not size one up front.
const consChunk = 4096

// pairRules builds the rules ante → hi∖ante of the Luxenburger and
// informative bases, where hi is a closed itemset containing ante.
// Consequents are carved from a shared array, each capped by a full
// slice expression so that appending to one reallocates it instead of
// overwriting the next. A consequent's support is that of its closure,
// the first id of its up-set in the posting index, so no key string is
// built.
type pairRules struct {
	nodes []closedset.Closed // FC in index id order
	idx   *closedset.Index
	arena []int
}

func (p *pairRules) rule(ante itemset.Itemset, anteSup int, hi closedset.Closed) rules.Rule {
	if n := hi.Items.Len() - ante.Len(); cap(p.arena)-len(p.arena) < n {
		p.arena = make([]int, 0, max(consChunk, n))
	}
	start, k := len(p.arena), 0
	for _, it := range hi.Items {
		for k < len(ante) && ante[k] < it {
			k++
		}
		if k < len(ante) && ante[k] == it {
			continue
		}
		p.arena = append(p.arena, it)
	}
	cons := itemset.Itemset(p.arena[start:len(p.arena):len(p.arena)])
	return rules.Rule{
		Antecedent:        ante,
		Consequent:        cons,
		Support:           hi.Support,
		AntecedentSupport: anteSup,
		ConsequentSupport: p.nodes[p.idx.First(cons, 0)].Support,
	}
}

func checkConf(c float64) error {
	if c < 0 || c > 1 {
		return fmt.Errorf("core: minConfidence %v outside [0,1]", c)
	}
	return nil
}
