package closedrules

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"

	"closedrules/internal/apriori"
	"closedrules/internal/basis"
	"closedrules/internal/closedset"
	"closedrules/internal/core"
	"closedrules/internal/genclose"
	"closedrules/internal/itemset"
	"closedrules/internal/lattice"
	"closedrules/internal/rules"
)

// Result holds the outcome of a closed-itemset mining run. Frequent
// itemsets, the iceberg lattice, rules and bases are derived lazily on
// first use and cached. Result is safe for concurrent use.
type Result struct {
	d         *Dataset
	minSup    int
	minerName string
	hasGens   bool
	// resolveGens applies WithGeneratorResolution to every basis build:
	// set when the miner was defaulted rather than named.
	resolveGens bool
	fc          *closedset.Set

	famOnce sync.Once
	fam     *itemset.Family // lazily mined (Apriori) for FrequentItemsets and AllRules
	famErr  error
	latOnce sync.Once
	lat     *lattice.Lattice // lazily built

	// genMu/genFC memoize the WithGeneratorResolution re-mine: the FC
	// with minimal generators attached, produced by one genclose run
	// over the same dataset and threshold. Errors (e.g. cancellation)
	// are not cached, so a failed resolution can be retried.
	genMu sync.Mutex
	genFC *closedset.Set

	// basisCache memoizes Basis outputs per (basis, thresholds) so a
	// serving layer can re-request the same basis without re-walking
	// the lattice. Values are *RuleSet; keys come from basisCacheKey.
	basisCache sync.Map
}

// Dataset returns the mined dataset.
func (r *Result) Dataset() *Dataset { return r.d }

// MinSupport returns the absolute minimum support count used.
func (r *Result) MinSupport() int { return r.minSup }

// MinerName returns the registry name of the closed-itemset miner that
// produced the result.
func (r *Result) MinerName() string { return r.minerName }

// TracksGenerators reports whether the producing miner recorded the
// minimal generators of each closed itemset (required by the generic
// and informative bases).
func (r *Result) TracksGenerators() bool { return r.hasGens }

// HasGenerators reports whether the result's closed itemsets carry
// their minimal generators — true for generator-tracking miners
// (close, a-close, titanic, genclose/pgenclose). Generator-requiring
// bases on a generator-less result re-mine via genclose when the miner
// was defaulted or the call passes WithGeneratorResolution, and fail
// with an explicit error otherwise.
func (r *Result) HasGenerators() bool { return r.hasGens }

// ClosedItemsets returns the frequent closed itemsets (FC), including
// the bottom h(∅), in canonical order.
func (r *Result) ClosedItemsets() []ClosedItemset { return r.fc.All() }

// NumClosed returns |FC|.
func (r *Result) NumClosed() int { return r.fc.Len() }

// MaximalItemsets returns the maximal frequent (closed) itemsets.
func (r *Result) MaximalItemsets() []ClosedItemset { return r.fc.Maximal() }

// Closure returns h(X), the smallest frequent closed itemset
// containing X; ok is false when X is not frequent.
func (r *Result) Closure(x Itemset) (ClosedItemset, bool) { return r.fc.ClosureOf(x) }

// Support returns supp(X) = supp(h(X)); ok is false when X is not
// frequent.
func (r *Result) Support(x Itemset) (int, bool) { return r.fc.SupportOf(x) }

func (r *Result) family() (*itemset.Family, error) {
	r.famOnce.Do(func() {
		r.fam, _, r.famErr = apriori.Mine(r.d, r.minSup)
	})
	return r.fam, r.famErr
}

func (r *Result) latticeOf() *lattice.Lattice {
	r.latOnce.Do(func() {
		r.lat = lattice.Build(r.fc)
	})
	return r.lat
}

// FrequentItemsets returns all frequent itemsets (mined lazily with
// Apriori at the Result's threshold). The paper's §2 guarantees these
// are recoverable from FC; this method exists for comparisons — no
// basis construction needs it.
func (r *Result) FrequentItemsets() ([]CountedItemset, error) {
	fam, err := r.family()
	if err != nil {
		return nil, err
	}
	return fam.All(), nil
}

// AllRules generates the complete set of valid association rules at
// the given confidence threshold — the redundant set the bases
// compress.
func (r *Result) AllRules(minConf float64) ([]Rule, error) {
	fam, err := r.family()
	if err != nil {
		return nil, err
	}
	return rules.Generate(fam, minConf)
}

// LatticeDOT renders the iceberg lattice in Graphviz format.
func (r *Result) LatticeDOT() string {
	return r.latticeOf().DOT(r.d.Names())
}

// LatticeEdges returns the Hasse edges of the iceberg lattice as
// (lower, upper) pairs of closed itemsets.
func (r *Result) LatticeEdges() [][2]ClosedItemset {
	lat := r.latticeOf()
	var out [][2]ClosedItemset
	for _, e := range lat.Edges() {
		out = append(out, [2]ClosedItemset{lat.Nodes[e[0]], lat.Nodes[e[1]]})
	}
	return out
}

// resolveGenerators re-mines the dataset with genclose — the one-pass
// closed-sets-plus-generators miner — at the result's threshold, and
// memoizes the resolved family. It backs WithGeneratorResolution;
// because genclose's closed sets and supports are byte-identical to
// any other closed miner's, the resolved FC differs from r.fc only in
// carrying generators.
func (r *Result) resolveGenerators(ctx context.Context) (*closedset.Set, error) {
	r.genMu.Lock()
	cached := r.genFC
	r.genMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	// Mine outside the lock; concurrent resolvers may race the re-mine,
	// but every run produces the identical family, so first-publish-wins
	// is safe.
	fc, err := genclose.MineContext(ctx, r.d, r.minSup)
	if err != nil {
		return nil, err
	}
	r.genMu.Lock()
	if r.genFC == nil {
		r.genFC = fc
	}
	fc = r.genFC
	r.genMu.Unlock()
	return fc, nil
}

// buildInput assembles the registry-facing view of this result with
// the given construction options.
func (r *Result) buildInput(cfg basisConfig) basis.BuildInput {
	in := basis.BuildInput{
		NumTx:                  r.d.NumTransactions(),
		FC:                     r.fc,
		HasGenerators:          r.hasGens,
		MinerName:              r.minerName,
		MinConfidence:          cfg.minConf,
		Reduced:                cfg.reduced,
		IncludeEmptyAntecedent: cfg.includeEmpty,
		Lattice:                r.latticeOf,
	}
	if (cfg.genResolve || r.resolveGens) && !r.hasGens {
		in.ResolveGenerators = r.resolveGenerators
	}
	return in
}

// basisCacheKey is the memoization key for one unfiltered Basis
// configuration. The confidence threshold is deliberately absent: only
// threshold-0 builds are cached, so the key space is bounded by
// (basis, variant) and a client sweeping minconf values cannot grow
// the cache.
func basisCacheKey(name string, cfg basisConfig) string {
	return basis.Canonical(name) + "|" +
		strconv.FormatBool(cfg.reduced) + "|" +
		strconv.FormatBool(cfg.includeEmpty) + "|" +
		strconv.FormatBool(cfg.genResolve)
}

// Basis constructs the named rule basis from this result — the one way
// to obtain any basis, built-in or registered via RegisterBasis. The
// name is resolved through the basis registry (matching ignores case,
// hyphens and underscores; Bases lists what is registered), thresholds
// come from the options (WithMinConfidence, WithReduction), and the
// returned RuleSet carries the provenance: basis name, thresholds and
// rules. The unfiltered construction is memoized per (basis, variant)
// on the Result and the confidence threshold applied as a cheap
// per-rule filter on each call, so serving layers can re-request a
// basis at any threshold for near-free; callers must not mutate the
// returned rules.
func (r *Result) Basis(ctx context.Context, name string, opts ...BasisOption) (*RuleSet, error) {
	cfg, err := buildBasisConfig(opts)
	if err != nil {
		return nil, err
	}
	return r.basisWith(ctx, name, cfg)
}

// basisWith is Basis after option resolution; internal callers (the
// derivation engine, the legacy wrappers) use it to reach the
// IncludeEmptyAntecedent variants the exported options do not expose.
// Only the unfiltered (threshold-0) construction is built and cached;
// the requested confidence threshold is applied as a per-rule filter
// on the way out, per the Builder contract. This keeps the cache key
// space bounded by (basis, variant) no matter how many distinct
// thresholds callers — including HTTP clients via /rules?basis= —
// request.
func (r *Result) basisWith(ctx context.Context, name string, cfg basisConfig) (*RuleSet, error) {
	base := cfg
	base.minConf = 0
	key := basisCacheKey(name, base)
	cached, ok := r.basisCache.Load(key)
	if !ok {
		rs, err := basis.Build(ctx, name, r.buildInput(base))
		if err != nil {
			return nil, err
		}
		cached, _ = r.basisCache.LoadOrStore(key, &rs)
	}
	full := cached.(*RuleSet)
	if cfg.minConf == 0 {
		return full, nil
	}
	filtered := *full
	filtered.MinConfidence = cfg.minConf
	filtered.Rules = rules.MinConfidence(full.Rules, cfg.minConf)
	return &filtered, nil
}

// BasisPair holds the paper's two bases: Exact is the Duquenne–Guigues
// basis (Theorem 1) and Approximate the transitive reduction of the
// Luxenburger basis at the chosen confidence (Theorem 2). Together
// they are a minimal non-redundant generating set for all valid rules.
type BasisPair struct {
	// Exact is the Duquenne–Guigues basis (confidence-1 rules).
	Exact []Rule
	// Approximate is the reduced Luxenburger basis at the requested
	// confidence.
	Approximate []Rule

	numTx int
	// unfiltered copies retained so the derivation engine sees the
	// complete diagram regardless of display thresholds.
	dgAll  []Rule
	luxAll []Rule
}

// Bases computes both of the paper's bases. minConf filters the
// approximate basis; exact rules always have confidence 1. Rules with
// an empty antecedent (possible only for the exact rule ∅ → h(∅) and
// approximate rules out of an empty bottom) are excluded from the
// exported lists but kept internally for derivation.
//
// Deprecated: use Basis(ctx, "duquenne-guigues") and Basis(ctx,
// "luxenburger", WithMinConfidence(minConf)), which resolve through
// the basis registry and carry provenance.
func (r *Result) Bases(minConf float64) (*BasisPair, error) {
	if !(minConf >= 0 && minConf <= 1) { // negated AND also rejects NaN
		return nil, fmt.Errorf("closedrules: minConfidence %v outside [0,1]", minConf)
	}
	ctx := context.Background()
	dg, err := r.basisWith(ctx, "duquenne-guigues", basisConfig{reduced: true, includeEmpty: true})
	if err != nil {
		return nil, err
	}
	// One lattice walk builds the unfiltered diagram; the displayed
	// basis is filtered from it in-process rather than re-walked.
	lux, err := r.basisWith(ctx, "luxenburger", basisConfig{reduced: true, includeEmpty: true})
	if err != nil {
		return nil, err
	}
	approximate := rules.Filter(lux.Rules, func(ru Rule) bool {
		return ru.Antecedent.Len() > 0 && ru.Confidence() >= minConf
	})
	return &BasisPair{
		Exact:       core.DropEmptyAntecedent(dg.Rules),
		Approximate: approximate,
		numTx:       r.d.NumTransactions(),
		dgAll:       dg.Rules,
		luxAll:      lux.Rules,
	}, nil
}

// LuxenburgerFull returns the unreduced Luxenburger basis: one rule
// per comparable pair of frequent closed itemsets.
//
// Deprecated: use Basis(ctx, "luxenburger", WithMinConfidence(minConf),
// WithReduction(false)).
func (r *Result) LuxenburgerFull(minConf float64) ([]Rule, error) {
	rs, err := r.Basis(context.Background(), "luxenburger",
		WithMinConfidence(minConf), WithReduction(false))
	if err != nil {
		return nil, err
	}
	return rs.Rules, nil
}

// GenericBasis returns the generic basis for exact rules (minimal-
// generator antecedents), the follow-on refinement of the same
// authors. Requires a generator-tracking miner (genclose, close,
// a-close, titanic) or a defaulted result, which resolves them.
//
// Deprecated: use Basis(ctx, "generic").
func (r *Result) GenericBasis() ([]Rule, error) {
	rs, err := r.Basis(context.Background(), "generic")
	if err != nil {
		return nil, err
	}
	return rs.Rules, nil
}

// InformativeBasis returns the informative basis for approximate rules
// (minimal-generator antecedents, closed-itemset consequents); reduced
// restricts consequents to lattice covers.
//
// Deprecated: use Basis(ctx, "informative", WithMinConfidence(minConf),
// WithReduction(reduced)).
func (r *Result) InformativeBasis(minConf float64, reduced bool) ([]Rule, error) {
	rs, err := r.Basis(context.Background(), "informative",
		WithMinConfidence(minConf), WithReduction(reduced))
	if err != nil {
		return nil, err
	}
	return rs.Rules, nil
}

// PseudoClosedItemsets returns the frequent pseudo-closed itemsets —
// the antecedents of the Duquenne–Guigues basis — enumerated from the
// closed itemsets alone, in canonical order.
func (r *Result) PseudoClosedItemsets() ([]CountedItemset, error) {
	ps, err := core.PseudoClosedSets(context.TODO(), r.d.NumTransactions(), r.fc)
	if err != nil {
		return nil, err
	}
	out := make([]CountedItemset, len(ps))
	for i, p := range ps {
		out[i] = CountedItemset{Items: p.Items, Support: p.Support}
	}
	return out, nil
}

// Engine is the derivation engine of the paper's theorems: it answers
// support, confidence and validity queries for arbitrary rules using
// only the two bases.
type Engine = core.Engine

// Engine builds a derivation engine from the bases.
func (b *BasisPair) Engine() (*Engine, error) {
	return core.NewEngine(b.numTx, b.dgAll, b.luxAll)
}

// Size returns |Exact| + |Approximate|.
func (b *BasisPair) Size() int { return len(b.Exact) + len(b.Approximate) }

// NewEngine builds a derivation engine from an exact and an
// approximate rule set, the registry-era counterpart of
// BasisPair.Engine. For complete derivability the sets must be
// unfiltered (confidence 0) and the exact set a Duquenne–Guigues
// basis; Result.DerivationEngine assembles exactly that.
func NewEngine(numTx int, exact, approximate *RuleSet) (*Engine, error) {
	if exact == nil || approximate == nil {
		return nil, fmt.Errorf("closedrules: NewEngine with nil rule set")
	}
	return core.NewEngine(numTx, exact.Rules, approximate.Rules)
}

// DerivationEngine builds the derivation engine from the unfiltered
// Duquenne–Guigues and reduced Luxenburger bases of this result — the
// complete condensed representation of Theorems 1 and 2.
func (r *Result) DerivationEngine(ctx context.Context) (*Engine, error) {
	dg, err := r.basisWith(ctx, "duquenne-guigues", basisConfig{reduced: true, includeEmpty: true})
	if err != nil {
		return nil, err
	}
	lux, err := r.basisWith(ctx, "luxenburger", basisConfig{reduced: true, includeEmpty: true})
	if err != nil {
		return nil, err
	}
	return NewEngine(r.d.NumTransactions(), dg, lux)
}

// DeriveAllRules regenerates the complete set of valid rules at the
// given confidence from the condensed representation alone (closed
// itemsets + bases) — the database is not consulted. It must return
// exactly what AllRules measures; the test suite asserts this.
func (r *Result) DeriveAllRules(minConf float64) ([]Rule, error) {
	eng, err := r.DerivationEngine(context.Background())
	if err != nil {
		return nil, err
	}
	return core.DeriveAllRules(eng, r.fc, minConf, 25)
}

// SaveClosedItemsets writes the frequent closed itemsets (with their
// generators) in the library's stable text format, so a mined FC can
// be stored and re-analyzed without re-mining.
func (r *Result) SaveClosedItemsets(w io.Writer) error {
	return closedset.Write(w, r.fc)
}

// LoadClosedItemsets reads a collection written by SaveClosedItemsets.
func LoadClosedItemsets(rd io.Reader) ([]ClosedItemset, error) {
	s, err := closedset.Read(rd)
	if err != nil {
		return nil, err
	}
	return s.All(), nil
}
