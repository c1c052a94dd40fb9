package core

import (
	"fmt"

	"closedrules/internal/closedset"
	"closedrules/internal/lattice"
	"closedrules/internal/rules"
)

// The informative ("min-max") bases are the follow-on refinement of
// this paper's bases by the same group (Bastide, Pasquier, Taouil,
// Stumme, Lakhal — "Mining minimal non-redundant association rules
// using frequent closed itemsets", CL 2000 / SIGKDD Explorations
// 2(2)). Where Duquenne–Guigues rules have pseudo-closed antecedents,
// informative rules have *minimal generator* antecedents: each rule
// has a minimal antecedent and a maximal consequent, which makes the
// set larger than the DG basis but directly readable (no inference
// needed to interpret a rule). They require a miner that tracks
// generators (Close or A-Close in this library).

// GenericBasis builds the generic basis for exact rules: g → h(g)∖g
// for every minimal generator g that differs from its closure.
func GenericBasis(fc *closedset.Set) ([]rules.Rule, error) {
	gens := fc.AllGenerators()
	if len(gens) == 0 && fc.Len() > 0 {
		return nil, fmt.Errorf("core: closed set carries no generators (use Close or A-Close)")
	}
	var out []rules.Rule
	for _, g := range gens {
		if g.Generator.Equal(g.Closure) {
			continue
		}
		cons := g.Closure.Diff(g.Generator)
		consSup := 0
		if s, ok := fc.SupportOf(cons); ok {
			consSup = s
		}
		out = append(out, rules.Rule{
			Antecedent:        g.Generator,
			Consequent:        cons,
			Support:           g.Support,
			AntecedentSupport: g.Support,
			ConsequentSupport: consSup,
		})
	}
	rules.Sort(out)
	return out, nil
}

// InformativeBasis builds the informative basis for approximate rules:
// g → I2∖g for every minimal generator g and every frequent closed
// I2 ⊋ h(g). Reduced=true restricts I2 to the upper covers of h(g) in
// the iceberg lattice (the "reduced informative basis").
func InformativeBasis(lat *lattice.Lattice, fc *closedset.Set, reduced bool, opt LuxenburgerOptions) ([]rules.Rule, error) {
	if err := checkConf(opt.MinConfidence); err != nil {
		return nil, err
	}
	gens := fc.AllGenerators()
	if len(gens) == 0 && fc.Len() > 0 {
		return nil, fmt.Errorf("core: closed set carries no generators (use Close or A-Close)")
	}
	// Consequent supports come from fc itself: with generators resolved
	// by a re-mine, fc is not the set lat was built from.
	p := pairRules{nodes: fc.All(), idx: fc.Index()}
	var out []rules.Rule
	for _, g := range gens {
		if g.Generator.Len() == 0 && !opt.IncludeEmptyAntecedent {
			continue
		}
		hIdx, ok := lat.NodeIndex(g.Closure)
		if !ok {
			return nil, fmt.Errorf("core: closure %v missing from lattice", g.Closure)
		}
		var targets []int
		if reduced {
			targets = lat.Up[hIdx]
		} else {
			targets = strictSupersets(lat, hIdx)
		}
		for _, ti := range targets {
			if hi := lat.Nodes[ti]; keepPair(g.Support, hi.Support, opt) {
				out = append(out, p.rule(g.Generator, g.Support, hi))
			}
		}
	}
	out = rules.Dedup(out)
	rules.Sort(out)
	return out, nil
}

// strictSupersets returns the indices of all nodes strictly above idx.
func strictSupersets(lat *lattice.Lattice, idx int) []int {
	var out []int
	base := lat.Nodes[idx].Items
	for j, n := range lat.Nodes {
		if j != idx && n.Items.ContainsAll(base) && n.Items.Len() > base.Len() {
			out = append(out, j)
		}
	}
	return out
}
