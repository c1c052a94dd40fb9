package closedrules

import (
	"closedrules/internal/basis"
	"closedrules/internal/miner"

	// The built-in bases register themselves from builtin's init
	// function, exactly as the miners below do.
	_ "closedrules/internal/basis/builtin"

	// The built-in miners register themselves from their init
	// functions; these imports are what make them reachable by name.
	_ "closedrules/internal/aclose"
	_ "closedrules/internal/apriori"
	_ "closedrules/internal/charm"
	_ "closedrules/internal/closealg"
	_ "closedrules/internal/eclat"
	_ "closedrules/internal/fpgrowth"
	_ "closedrules/internal/genclose"
	_ "closedrules/internal/pascal"
	_ "closedrules/internal/titanic"
)

// ClosedMiner is a pluggable closed-itemset mining algorithm. Register
// an implementation with RegisterClosedMiner to make it reachable
// through MineContext's WithAlgorithm option. Implementations must
// return the complete FC including the bottom element h(∅), honor
// ctx cancellation at level or extension boundaries, and be safe for
// concurrent use.
type ClosedMiner = miner.ClosedMiner

// FrequentMiner is a pluggable frequent-itemset mining algorithm,
// reachable through MineFrequentContext's WithAlgorithm option, under
// the same cancellation and concurrency contract as ClosedMiner.
type FrequentMiner = miner.FrequentMiner

// RegisterClosedMiner makes a closed-itemset miner available under the
// given name. Like database/sql.Register it panics when the miner is
// nil or the name is empty or already taken: registration is meant to
// run from an init function, where a duplicate is a programming error.
func RegisterClosedMiner(name string, m ClosedMiner) { miner.RegisterClosed(name, m) }

// RegisterFrequentMiner makes a frequent-itemset miner available under
// the given name, with the same panicking contract as
// RegisterClosedMiner.
func RegisterFrequentMiner(name string, m FrequentMiner) { miner.RegisterFrequent(name, m) }

// LookupClosedMiner resolves a registered closed miner by name; the
// error of an unknown name lists the registered alternatives.
func LookupClosedMiner(name string) (ClosedMiner, error) { return miner.LookupClosed(name) }

// LookupFrequentMiner resolves a registered frequent miner by name.
func LookupFrequentMiner(name string) (FrequentMiner, error) { return miner.LookupFrequent(name) }

// ClosedMiners returns the registered closed-miner names, sorted.
func ClosedMiners() []string { return miner.ClosedNames() }

// FrequentMiners returns the registered frequent-miner names, sorted.
func FrequentMiners() []string { return miner.FrequentNames() }

// BasisBuilder is a pluggable rule-basis construction, reachable by
// name through Result.Basis. Register an implementation with
// RegisterBasis to plug a new basis — e.g. a closure-operator basis or
// a simultaneous lattice+bases construction — into the library, the
// armine CLI and the HTTP server without touching any of them.
// Implementations must return rules in canonical sorted order, honor
// ctx cancellation, and be safe for concurrent use.
type BasisBuilder = basis.Builder

// BasisRequirements declares what a basis construction needs from the
// mining result beyond the closed itemsets (generators, the iceberg
// lattice); the registry verifies them before every Build.
type BasisRequirements = basis.Requirements

// BasisInput carries the mining result's components into a
// BasisBuilder: the closed itemsets, |O|, and a lazy thunk for the
// lattice.
type BasisInput = basis.BuildInput

// RuleSet is a constructed rule basis with its provenance: the basis
// registry name, the thresholds it was built at, and the rules in
// canonical order.
type RuleSet = basis.RuleSet

// RegisterBasis makes a rule-basis construction available under the
// given name, with the same panicking contract as RegisterClosedMiner:
// registration is meant to run from an init function, where a nil
// builder, an empty name or a duplicate is a programming error.
func RegisterBasis(name string, b BasisBuilder) { basis.Register(name, b) }

// LookupBasis resolves a registered basis builder by name; the error
// of an unknown name lists the registered alternatives. Matching
// ignores case, hyphens and underscores, so "Duquenne-Guigues" and
// "duquenneguigues" are equivalent.
func LookupBasis(name string) (BasisBuilder, error) { return basis.Lookup(name) }

// Bases returns the registered basis names, sorted.
func Bases() []string { return basis.Names() }
