package core

import (
	"context"
	"fmt"

	"closedrules/internal/closedset"
	"closedrules/internal/itemset"
	"closedrules/internal/rules"
)

// DuquenneGuigues builds the Duquenne–Guigues basis for exact
// association rules (Theorem 1): the rules P → h(P)∖P for every
// frequent pseudo-closed itemset P. The result is a minimal
// non-redundant generating set for all exact rules between frequent
// itemsets; its rules all have confidence 1.
//
// When ∅ is pseudo-closed (some item occurs in every transaction) the
// basis contains the rule ∅ → h(∅), which conventional rule listings
// omit; keep or filter it with DropEmptyAntecedent depending on the
// comparison being made.
//
// The basis is built from FC alone (see PseudoClosedSets); ctx cancels
// the enumeration.
func DuquenneGuigues(ctx context.Context, numTx int, fc *closedset.Set) ([]rules.Rule, error) {
	pseudo, err := PseudoClosedSets(ctx, numTx, fc)
	if err != nil {
		return nil, err
	}
	out := make([]rules.Rule, 0, len(pseudo))
	for _, p := range pseudo {
		cons := p.Closure.Diff(p.Items)
		consSup := 0
		if s, ok := fc.SupportOf(cons); ok {
			consSup = s
		}
		out = append(out, rules.Rule{
			Antecedent:        p.Items,
			Consequent:        cons,
			Support:           p.Support,
			AntecedentSupport: p.Support, // supp(P) = supp(h(P)): exact
			ConsequentSupport: consSup,
		})
	}
	rules.Sort(out)
	return out, nil
}

// DropEmptyAntecedent filters out rules with an empty antecedent.
func DropEmptyAntecedent(list []rules.Rule) []rules.Rule {
	out := make([]rules.Rule, 0, len(list))
	for _, r := range list {
		if r.Antecedent.Len() > 0 {
			out = append(out, r)
		}
	}
	return out
}

// ExpandFrequent reconstructs the complete frequent-itemset family
// from the frequent closed itemsets — the §2 property that FC is a
// generating set for FI: every frequent itemset is a subset of some
// frequent closed itemset, and its support is the support of its
// closure. It enumerates subsets of the maximal closed itemsets, so
// it is exponential in their size; maximal itemsets wider than
// maxWidth (≤ 30) are rejected to prevent accidental blow-up.
func ExpandFrequent(fc *closedset.Set, maxWidth int) (*itemset.Family, error) {
	if maxWidth <= 0 || maxWidth > 30 {
		maxWidth = 25
	}
	fam := itemset.NewFamily()
	for _, m := range fc.Maximal() {
		if m.Items.Len() > maxWidth {
			return nil, fmt.Errorf("core: maximal closed itemset of %d items exceeds expansion width %d",
				m.Items.Len(), maxWidth)
		}
		// All non-empty subsets of m, plus m itself.
		addWithSupport(fam, fc, m.Items)
		m.Items.Subsets(func(sub itemset.Itemset) bool {
			addWithSupport(fam, fc, sub)
			return true
		})
	}
	return fam, nil
}

func addWithSupport(fam *itemset.Family, fc *closedset.Set, items itemset.Itemset) {
	if items.Len() == 0 || fam.Contains(items) {
		return
	}
	if sup, ok := fc.SupportOf(items); ok {
		fam.Add(items, sup)
	}
}
