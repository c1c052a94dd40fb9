package closedrules

import (
	"context"
	"fmt"

	"closedrules/internal/closedset"
	"closedrules/internal/miner"
)

// MineOption configures MineContext and MineFrequentContext.
type MineOption func(*mineConfig) error

type mineConfig struct {
	minSupport  float64 // relative, in (0,1]; 0 when unset
	absSupport  int     // absolute count ≥ 1; 0 when unset
	algorithm   string  // registry name; empty means the call's default
	parallelism int     // worker-count hint for parallel miners; 0 when unset
}

// WithMinSupport sets the relative minimum support threshold in
// (0, 1].
func WithMinSupport(rel float64) MineOption {
	return func(c *mineConfig) error {
		if !(rel > 0 && rel <= 1) { // negated AND also rejects NaN
			return fmt.Errorf("closedrules: WithMinSupport(%v) outside (0,1]", rel)
		}
		c.minSupport = rel
		return nil
	}
}

// WithAbsoluteMinSupport sets the minimum support as an absolute
// transaction count ≥ 1. It takes precedence over WithMinSupport.
func WithAbsoluteMinSupport(count int) MineOption {
	return func(c *mineConfig) error {
		if count < 1 {
			return fmt.Errorf("closedrules: WithAbsoluteMinSupport(%d) < 1", count)
		}
		c.absSupport = count
		return nil
	}
}

// WithAlgorithm selects the miner by registry name (see ClosedMiners
// and FrequentMiners for the available names). Name matching ignores
// case, hyphens and underscores, so "a-close" and "AClose" are
// equivalent. An unknown name surfaces as an error from the mining
// call, which lists the registered alternatives.
func WithAlgorithm(name string) MineOption {
	return func(c *mineConfig) error {
		if name == "" {
			return fmt.Errorf("closedrules: WithAlgorithm with empty name")
		}
		c.algorithm = name
		return nil
	}
}

// WithParallelism sets the number of workers parallel miners (such as
// "pcharm" and "peclat") use, overriding their default of one worker
// per CPU. Sequential miners ignore it. n must be ≥ 1; note that the
// hint caps concurrency, it does not create it — mining with
// WithParallelism(1) is the parallel algorithm run on one worker.
func WithParallelism(n int) MineOption {
	return func(c *mineConfig) error {
		if n < 1 {
			return fmt.Errorf("closedrules: WithParallelism(%d) < 1", n)
		}
		c.parallelism = n
		return nil
	}
}

// BasisOption configures Result.Basis.
type BasisOption func(*basisConfig) error

// basisConfig carries the resolved basis-construction options. The
// zero value is not the default — buildBasisConfig seeds reduced=true,
// the paper's served variant.
type basisConfig struct {
	minConf      float64 // keep rules with confidence ≥ this; 0 keeps all
	reduced      bool    // transitive-reduction variant where one exists
	includeEmpty bool    // keep empty-antecedent rules (engine plumbing)
	genResolve   bool    // re-mine generators via genclose when missing
}

// WithMinConfidence keeps only rules with confidence ≥ c ∈ [0,1] in
// the constructed basis. Exact-rule bases (confidence 1 everywhere)
// are unaffected. The default 0 keeps every rule.
func WithMinConfidence(c float64) BasisOption {
	return func(cfg *basisConfig) error {
		// The negated-AND form also rejects NaN, which passes every
		// ordered comparison.
		if !(c >= 0 && c <= 1) {
			return fmt.Errorf("closedrules: WithMinConfidence(%v) outside [0,1]", c)
		}
		cfg.minConf = c
		return nil
	}
}

// WithReduction selects between the transitive-reduction variant of a
// basis (true, the default — e.g. the Hasse-edge Luxenburger reduction
// of Theorem 2) and the full variant (false — one rule per comparable
// closed pair). Bases without a reduced variant ignore it.
func WithReduction(reduced bool) BasisOption {
	return func(cfg *basisConfig) error {
		cfg.reduced = reduced
		return nil
	}
}

// WithGeneratorResolution lets a generator-requiring basis (generic,
// informative) be built from a result whose miner does not track
// minimal generators: the registry re-mines the dataset once with
// genclose — the one-pass closed-sets-plus-generators miner — and
// builds the basis from that resolved family. The re-mine is memoized
// on the Result, so repeated basis builds pay for it once. A result
// mined with the default miner (no WithAlgorithm) resolves this way
// without the opt-in; on a result whose miner was named explicitly,
// such a request without the opt-in fails with the requirement error.
func WithGeneratorResolution() BasisOption {
	return func(cfg *basisConfig) error {
		cfg.genResolve = true
		return nil
	}
}

func buildBasisConfig(opts []BasisOption) (basisConfig, error) {
	cfg := basisConfig{reduced: true}
	for _, opt := range opts {
		if opt == nil {
			return cfg, fmt.Errorf("closedrules: nil BasisOption")
		}
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

func buildConfig(opts []MineOption) (mineConfig, error) {
	var c mineConfig
	for _, opt := range opts {
		if opt == nil {
			return c, fmt.Errorf("closedrules: nil MineOption")
		}
		if err := opt(&c); err != nil {
			return c, err
		}
	}
	return c, nil
}

// minSup resolves the absolute support count for a dataset.
func (c mineConfig) minSup(d *Dataset) (int, error) {
	if c.absSupport >= 1 {
		return c.absSupport, nil
	}
	if c.minSupport <= 0 || c.minSupport > 1 {
		return 0, fmt.Errorf("closedrules: no support threshold: use WithMinSupport or WithAbsoluteMinSupport")
	}
	return d.AbsoluteSupport(c.minSupport), nil
}

// MineContext extracts the frequent closed itemsets of the dataset
// with the selected closed-itemset miner and returns a Result from
// which itemsets, rules and bases are derived. The default miner is
// "charm", the fastest exact closed miner; every closed miner returns
// the same FC, and the paper's bases are functions of FC alone. Charm
// records no minimal generators, so a defaulted Result asked for a
// generator basis (generic, informative) re-mines once with genclose,
// memoized; a caller that knows it will serve such a basis should
// pass its BasisSelection.Miner to WithAlgorithm and mine once. The
// context is honored at the miner's level or extension boundaries, so
// cancellation and deadlines abort a runaway mine mid-run with
// ctx.Err().
func MineContext(ctx context.Context, d *Dataset, opts ...MineOption) (*Result, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	defaulted := cfg.algorithm == ""
	if defaulted {
		cfg.algorithm = "charm"
	}
	minSup, err := cfg.minSup(d)
	if err != nil {
		return nil, err
	}
	m, err := miner.LookupClosed(cfg.algorithm)
	if err != nil {
		return nil, err
	}
	if cfg.parallelism > 0 {
		ctx = miner.ContextWithParallelism(ctx, cfg.parallelism)
	}
	items, err := m.MineClosed(ctx, d, minSup)
	if err != nil {
		return nil, err
	}
	return &Result{
		d:           d,
		minSup:      minSup,
		minerName:   miner.Canonical(cfg.algorithm),
		hasGens:     m.TracksGenerators(),
		resolveGens: defaulted,
		fc:          closedset.FromSlice(items),
	}, nil
}

// MineFrequentContext extracts all frequent itemsets with the selected
// frequent-itemset miner (default "apriori"), under the same
// cancellation contract as MineContext.
func MineFrequentContext(ctx context.Context, d *Dataset, opts ...MineOption) ([]CountedItemset, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.algorithm == "" {
		cfg.algorithm = "apriori"
	}
	minSup, err := cfg.minSup(d)
	if err != nil {
		return nil, err
	}
	m, err := miner.LookupFrequent(cfg.algorithm)
	if err != nil {
		return nil, err
	}
	if cfg.parallelism > 0 {
		ctx = miner.ContextWithParallelism(ctx, cfg.parallelism)
	}
	return m.MineFrequent(ctx, d, minSup)
}
