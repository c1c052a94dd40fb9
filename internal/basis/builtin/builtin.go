// Package builtin registers the library's built-in rule-basis
// constructions — the paper's Duquenne–Guigues and Luxenburger bases
// plus the follow-on generic and informative (min-max) bases — with
// the basis registry. The constructions themselves live in
// internal/core; this package is the thin adapter layer that makes
// them reachable by registry name, mirroring the per-miner register.go
// files of the miner registry.
package builtin

import (
	"context"

	"closedrules/internal/basis"
	"closedrules/internal/core"
	"closedrules/internal/rules"
)

func init() {
	basis.Register("duquenne-guigues", duquenneGuigues{})
	basis.Register("luxenburger", luxenburger{})
	basis.Register("generic", generic{})
	basis.Register("informative", informative{})
}

// duquenneGuigues builds the exact-rule basis of Theorem 1: one rule
// P → h(P)∖P per frequent pseudo-closed itemset P.
type duquenneGuigues struct{}

// Name returns the basis's registry name.
func (duquenneGuigues) Name() string { return "duquenne-guigues" }

// Requirements declares nothing beyond FC: the pseudo-closed
// antecedents are enumerated from the closed itemsets alone.
func (duquenneGuigues) Requirements() basis.Requirements {
	return basis.Requirements{}
}

// Build constructs the basis. Every rule has confidence 1, so the
// confidence threshold never filters anything; the Reduced flag is
// ignored (the basis is already minimal).
func (duquenneGuigues) Build(ctx context.Context, in basis.BuildInput) (basis.RuleSet, error) {
	list, err := core.DuquenneGuigues(ctx, in.NumTx, in.FC)
	if err != nil {
		return basis.RuleSet{}, err
	}
	if !in.IncludeEmptyAntecedent {
		list = core.DropEmptyAntecedent(list)
	}
	return basis.RuleSet{Rules: list}, nil
}

// luxenburger builds the approximate-rule basis of Theorem 2: one rule
// per comparable pair of frequent closed itemsets, or (Reduced, the
// default) only the Hasse-edge pairs of the iceberg lattice.
type luxenburger struct{}

// Name returns the basis's registry name.
func (luxenburger) Name() string { return "luxenburger" }

// Requirements declares the iceberg lattice (the reduction walks its
// Hasse edges).
func (luxenburger) Requirements() basis.Requirements {
	return basis.Requirements{Lattice: true}
}

// Build constructs the full or reduced variant per in.Reduced.
func (luxenburger) Build(ctx context.Context, in basis.BuildInput) (basis.RuleSet, error) {
	if err := ctx.Err(); err != nil {
		return basis.RuleSet{}, err
	}
	opt := core.LuxenburgerOptions{
		MinConfidence:          in.MinConfidence,
		IncludeEmptyAntecedent: in.IncludeEmptyAntecedent,
	}
	var (
		list []rules.Rule
		err  error
	)
	if in.Reduced {
		list, err = core.LuxenburgerReduction(in.Lattice(), in.FC, opt)
	} else {
		list, err = core.LuxenburgerFull(in.FC, opt)
	}
	if err != nil {
		return basis.RuleSet{}, err
	}
	return basis.RuleSet{Rules: list}, nil
}

// generic builds the generic basis for exact rules: g → h(g)∖g per
// minimal generator g that differs from its closure.
type generic struct{}

// Name returns the basis's registry name.
func (generic) Name() string { return "generic" }

// Requirements declares minimal generators (only generator-tracking
// miners record them).
func (generic) Requirements() basis.Requirements {
	return basis.Requirements{Generators: true}
}

// Build constructs the basis; like Duquenne–Guigues, its rules all
// have confidence 1, so the confidence threshold is moot.
func (generic) Build(ctx context.Context, in basis.BuildInput) (basis.RuleSet, error) {
	if err := ctx.Err(); err != nil {
		return basis.RuleSet{}, err
	}
	list, err := core.GenericBasis(in.FC)
	if err != nil {
		return basis.RuleSet{}, err
	}
	return basis.RuleSet{Rules: list}, nil
}

// informative builds the informative (min-max) basis for approximate
// rules: g → I2∖g per minimal generator g and frequent closed
// I2 ⊋ h(g); Reduced restricts I2 to lattice covers of h(g).
type informative struct{}

// Name returns the basis's registry name.
func (informative) Name() string { return "informative" }

// Requirements declares minimal generators and the iceberg lattice.
func (informative) Requirements() basis.Requirements {
	return basis.Requirements{Generators: true, Lattice: true}
}

// Build constructs the reduced or unreduced variant per in.Reduced.
func (informative) Build(ctx context.Context, in basis.BuildInput) (basis.RuleSet, error) {
	if err := ctx.Err(); err != nil {
		return basis.RuleSet{}, err
	}
	list, err := core.InformativeBasis(in.Lattice(), in.FC, in.Reduced, core.LuxenburgerOptions{
		MinConfidence:          in.MinConfidence,
		IncludeEmptyAntecedent: in.IncludeEmptyAntecedent,
	})
	if err != nil {
		return basis.RuleSet{}, err
	}
	return basis.RuleSet{Rules: list}, nil
}
