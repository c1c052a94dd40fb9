package closedrules

import (
	"context"
	"errors"
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

// Result holds a family of frequent closed itemsets: the outcome of a
// mining run, or closed itemsets stored by SaveClosedItemsets and read
// back with LoadResult. Frequent itemsets, the iceberg lattice, rules
// and bases are derived lazily on first use and cached. Result is safe
// for concurrent use.
type Result struct {
	d         *Dataset // nil for a loaded result
	numTx     int
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

// Dataset returns the mined dataset, or nil for a result read by
// LoadResult.
func (r *Result) Dataset() *Dataset { return r.d }

// NumTransactions returns |O|, the number of transactions the closed
// itemsets were mined from. A loaded result reads it off the support
// of the bottom element h(∅).
func (r *Result) NumTransactions() int { return r.numTx }

// MinSupport returns the absolute minimum support count used.
func (r *Result) MinSupport() int { return r.minSup }

// MinerName returns the registry name of the closed-itemset miner that
// produced the result: "incremental" for UpdateAppend and "loaded" for
// LoadResult.
func (r *Result) MinerName() string { return r.minerName }

// HasGenerators reports whether every closed itemset of the result
// carries its minimal generators — true for generator-tracking miners
// (close, a-close, titanic, genclose) and for a loaded file
// saved from one. Generator-requiring bases on a generator-less mined
// result re-mine via genclose when the miner was defaulted or the call
// passes WithGeneratorResolution, and fail with an explicit error
// otherwise; a loaded result has no transactions to re-mine and always
// fails.
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

// errNoTransactions refuses, on a result read by LoadResult, the
// operations that count itemsets in the transactions themselves.
var errNoTransactions = errors.New("closedrules: the result was loaded from closed itemsets without its transactions; mine the dataset to enumerate frequent itemsets or all rules")

func (r *Result) family() (*itemset.Family, error) {
	r.famOnce.Do(func() {
		if r.d == nil {
			r.famErr = errNoTransactions
			return
		}
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

// LatticeDOT renders the iceberg lattice in Graphviz format, with item
// names when the result has its dataset.
func (r *Result) LatticeDOT() string {
	var names []string
	if r.d != nil {
		names = r.d.Names()
	}
	return r.latticeOf().DOT(names)
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
		NumTx:                  r.numTx,
		FC:                     r.fc,
		HasGenerators:          r.hasGens,
		MinerName:              r.minerName,
		MinConfidence:          cfg.minConf,
		Reduced:                cfg.reduced,
		IncludeEmptyAntecedent: cfg.includeEmpty,
		Lattice:                r.latticeOf,
	}
	if (cfg.genResolve || r.resolveGens) && !r.hasGens && r.d != nil {
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

// basisWith is Basis after option resolution; the derivation engine
// uses it to reach the IncludeEmptyAntecedent variants the exported
// options do not expose.
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

// PseudoClosedItemsets returns the frequent pseudo-closed itemsets —
// the antecedents of the Duquenne–Guigues basis — enumerated from the
// closed itemsets alone, in canonical order.
func (r *Result) PseudoClosedItemsets() ([]CountedItemset, error) {
	ps, err := core.PseudoClosedSets(context.TODO(), r.numTx, r.fc)
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

// NewEngine builds a derivation engine from an exact and an
// approximate rule set. For complete derivability the sets must be
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
	return NewEngine(r.numTx, dg, lux)
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
// be stored and re-analyzed without re-mining; LoadResult reads it
// back.
func (r *Result) SaveClosedItemsets(w io.Writer) error {
	return closedset.Write(w, r.fc)
}

// LoadResult reads closed itemsets written by SaveClosedItemsets into a
// Result without a dataset — the "mine once, serve later" workflow.
// Everything the paper derives from FC alone works on it exactly as on
// the mined Result: supports, closures, the lattice, every basis
// (Duquenne–Guigues included), the derivation engine and a
// QueryService. The rest is read off the file: |O| is the support of
// the bottom element h(∅), MinSupport the smallest support present
// (the threshold that reproduces exactly this FC), HasGenerators
// whether every closed itemset carries a generator, and MinerName is
// "loaded". What needs the transactions — FrequentItemsets, AllRules,
// UpdateAppend and generator resolution — returns an error. The file
// must hold a complete FC: an empty file or one without a bottom
// element is rejected.
func LoadResult(rd io.Reader) (*Result, error) {
	fc, err := closedset.Read(rd)
	if err != nil {
		return nil, err
	}
	bot, ok := fc.Bottom()
	if !ok {
		return nil, fmt.Errorf("closedrules: no bottom element among %d closed itemsets (empty or incomplete FC)", fc.Len())
	}
	minSup := bot.Support
	fc.Each(func(c closedset.Closed) bool {
		minSup = min(minSup, c.Support)
		return true
	})
	return &Result{
		numTx:     bot.Support,
		minSup:    minSup,
		minerName: "loaded",
		hasGens:   fc.HasGenerators(),
		fc:        fc,
	}, nil
}
