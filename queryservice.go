package closedrules

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"closedrules/internal/closedset"
	"closedrules/internal/rules"
)

// QueryService serves support, confidence and recommendation queries
// from a mined condensed representation (frequent closed itemsets +
// rule bases) to many concurrent callers — the long-lived serving
// counterpart of a one-shot Mine run. All methods are safe for
// concurrent use; Swap atomically replaces the underlying data (hot
// reload after a re-mine) without blocking in-flight queries.
//
// Recommendation rankings are memoized in a cache sharded across
// independently locked stripes, so concurrent Recommend calls for
// different baskets do not contend. The hit/miss/swap counters are
// exposed by Stats for serving-layer metrics (see the server package).
type QueryService struct {
	st atomic.Pointer[serviceState]

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	swaps       atomic.Uint64
}

// BasisSelection names the exact/approximate basis pair a
// QueryService serves its Recommend rules from. Names resolve through
// the basis registry; an empty field selects the paper's default for
// that slot ("duquenne-guigues" exact, "luxenburger" approximate).
type BasisSelection struct {
	// Exact names the exact-rule basis ("duquenne-guigues" or
	// "generic"; "" selects the default).
	Exact string
	// Approximate names the approximate-rule basis ("luxenburger" or
	// "informative"; "" selects the default).
	Approximate string
}

// NeedsGenerators reports whether either basis of the selection
// declares a Generators requirement. An unknown name reports true;
// building a service with it fails anyway.
func (b BasisSelection) NeedsGenerators() bool {
	for _, name := range []string{b.Exact, b.Approximate} {
		if name == "" {
			continue
		}
		bb, err := LookupBasis(name)
		if err != nil || bb.Requirements().Generators {
			return true
		}
	}
	return false
}

// Miner names the closed miner a caller that knows its served pair
// before mining should pass to WithAlgorithm when it has no preference:
// "genclose" when a basis needs minimal generators, so FC and the
// generators come from one pass instead of the default miner plus a
// resolution re-mine, and "" (MineContext's default) otherwise.
func (b BasisSelection) Miner() string {
	if b.NeedsGenerators() {
		return "genclose"
	}
	return ""
}

// defaultBasisSelection is the paper's pair: Duquenne–Guigues exact
// rules plus the reduced Luxenburger basis.
var defaultBasisSelection = BasisSelection{Exact: "duquenne-guigues", Approximate: "luxenburger"}

// withDefaults fills empty slots with the paper's default pair.
func (b BasisSelection) withDefaults() BasisSelection {
	if b.Exact == "" {
		b.Exact = defaultBasisSelection.Exact
	}
	if b.Approximate == "" {
		b.Approximate = defaultBasisSelection.Approximate
	}
	return b
}

// serviceState is an immutable-after-build snapshot of everything the
// service answers from; Swap replaces it wholesale. Only the recCache
// stripes and the cache counters mutate after build.
type serviceState struct {
	numTx    int
	minConf  float64
	bases    BasisSelection // provenance of recRules (canonical names)
	res      *Result        // nil for collection-backed services
	fc       *closedset.Set
	recRules []Rule // basis rules (exact + approximate) for Recommend
	recCache *recCache

	// cacheHits and cacheMisses count Recommend cache outcomes against
	// THIS snapshot only; they are born zero at every Swap, so their
	// ratio describes how warm the cache serving right now actually is
	// (the QueryService-level counters accumulate across Swaps and
	// would conflate snapshots).
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
}

// ServiceStats is a point-in-time snapshot of a QueryService's
// operational counters. The CacheHits/CacheMisses pair accumulates
// across Swaps (the lifetime totals Prometheus counters want); the
// Snapshot* pair counts only lookups against the snapshot serving at
// the time of the Stats call, so its ratio describes the warmth of
// the cache answering requests right now.
type ServiceStats struct {
	// CacheHits counts Recommend calls answered from the cache, across
	// every snapshot served since the service was built.
	CacheHits uint64
	// CacheMisses counts Recommend calls that computed a fresh ranking,
	// across every snapshot served since the service was built.
	CacheMisses uint64
	// Swaps counts successful hot reloads.
	Swaps uint64
	// CacheEntries is the number of rankings currently cached.
	CacheEntries int
	// SnapshotCacheHits counts cache hits against the current snapshot
	// only; it resets to zero at every Swap.
	SnapshotCacheHits uint64
	// SnapshotCacheMisses counts cache misses against the current
	// snapshot only; it resets to zero at every Swap.
	SnapshotCacheMisses uint64
}

// SnapshotHitRatio is SnapshotCacheHits over all lookups against the
// current snapshot, or 0 before the snapshot's first lookup.
func (s ServiceStats) SnapshotHitRatio() float64 {
	total := s.SnapshotCacheHits + s.SnapshotCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.SnapshotCacheHits) / float64(total)
}

// NewQueryService builds a service from a mining result, serving the
// paper's default basis pair (Duquenne–Guigues + reduced Luxenburger).
// minConf filters the approximate basis rules served by Recommend;
// Support and Confidence are unaffected by it (they derive exact
// measures from the closed itemsets).
func NewQueryService(res *Result, minConf float64) (*QueryService, error) {
	return NewQueryServiceWithBases(res, minConf, BasisSelection{})
}

// NewQueryServiceWithBases is NewQueryService with an explicit basis
// pair: Recommend serves the rules of the named exact and approximate
// bases instead of the defaults. Generator-based bases ("generic",
// "informative") need a generator-tracking miner, or a Result mined
// with the default miner, which resolves them with one genclose
// re-mine.
func NewQueryServiceWithBases(res *Result, minConf float64, sel BasisSelection) (*QueryService, error) {
	st, err := stateFromResult(res, minConf, sel)
	if err != nil {
		return nil, err
	}
	qs := &QueryService{}
	qs.st.Store(st)
	return qs, nil
}

// NewQueryServiceFromCollection builds a service from a detached
// closed-itemset collection (the "mine once, serve later" workflow).
// Exact rules come from the generic basis when the collection carries
// generators; otherwise Recommend serves approximate rules only.
func NewQueryServiceFromCollection(col *ClosedCollection, minConf float64) (*QueryService, error) {
	st, err := stateFromCollection(col, minConf)
	if err != nil {
		return nil, err
	}
	qs := &QueryService{}
	qs.st.Store(st)
	return qs, nil
}

func stateFromResult(res *Result, minConf float64, sel BasisSelection) (*serviceState, error) {
	if res == nil {
		return nil, fmt.Errorf("closedrules: nil Result")
	}
	if !(minConf >= 0 && minConf <= 1) { // negated AND also rejects NaN
		return nil, fmt.Errorf("closedrules: minConf %v outside [0,1]", minConf)
	}
	sel = sel.withDefaults()
	ctx := context.Background()
	exact, err := res.Basis(ctx, sel.Exact)
	if err != nil {
		return nil, err
	}
	approx, err := res.Basis(ctx, sel.Approximate, WithMinConfidence(minConf))
	if err != nil {
		return nil, err
	}
	recRules := make([]Rule, 0, exact.Len()+approx.Len())
	recRules = append(recRules, exact.Rules...)
	recRules = append(recRules, approx.Rules...)
	return &serviceState{
		numTx:    res.Dataset().NumTransactions(),
		minConf:  minConf,
		bases:    BasisSelection{Exact: exact.Basis, Approximate: approx.Basis},
		res:      res,
		fc:       res.fc,
		recRules: recRules,
		recCache: newRecCache(),
	}, nil
}

func stateFromCollection(col *ClosedCollection, minConf float64) (*serviceState, error) {
	if col == nil {
		return nil, fmt.Errorf("closedrules: nil ClosedCollection")
	}
	if !(minConf >= 0 && minConf <= 1) { // negated AND also rejects NaN
		return nil, fmt.Errorf("closedrules: minConf %v outside [0,1]", minConf)
	}
	var recRules []Rule
	bases := BasisSelection{Approximate: "luxenburger"}
	if len(col.set.AllGenerators()) > 0 {
		exact, err := col.GenericBasis()
		if err != nil {
			return nil, err
		}
		recRules = append(recRules, exact...)
		bases.Exact = "generic"
	}
	approx, err := col.LuxenburgerReduction(minConf)
	if err != nil {
		return nil, err
	}
	recRules = append(recRules, approx...)
	return &serviceState{
		numTx:    col.NumTransactions(),
		minConf:  minConf,
		bases:    bases,
		fc:       col.set,
		recRules: recRules,
		recCache: newRecCache(),
	}, nil
}

// Swap atomically replaces the served data with a freshly mined
// result, keeping the service's confidence threshold and basis
// selection. In-flight queries finish against the old snapshot; new
// queries see the new one. The expensive basis construction happens
// before the pointer is published, so queries are never blocked on a
// re-mine. The recommendation cache starts empty in the new snapshot.
func (qs *QueryService) Swap(res *Result) error {
	cur := qs.st.Load()
	st, err := stateFromResult(res, cur.minConf, cur.bases)
	if err != nil {
		return err
	}
	qs.st.Store(st)
	qs.swaps.Add(1)
	return nil
}

// Stats returns a snapshot of the service's operational counters.
func (qs *QueryService) Stats() ServiceStats {
	st := qs.st.Load()
	return ServiceStats{
		CacheHits:           qs.cacheHits.Load(),
		CacheMisses:         qs.cacheMisses.Load(),
		Swaps:               qs.swaps.Load(),
		CacheEntries:        st.recCache.entries(),
		SnapshotCacheHits:   st.cacheHits.Load(),
		SnapshotCacheMisses: st.cacheMisses.Load(),
	}
}

// Swaps returns the number of successful hot reloads — a single
// atomic load, cheaper than Stats, which also counts cache entries
// across every stripe. Suited to hot paths like liveness probes.
func (qs *QueryService) Swaps() uint64 { return qs.swaps.Load() }

// Per-entry overheads of the MemoryEstimate model, in bytes. They
// stand in for Go runtime costs the library cannot observe directly:
// slice headers, map buckets, interned key strings.
const (
	estPerTransaction = 24  // slice header + allocator slack per transaction
	estPerClosed      = 96  // Closed struct + map entry + interned key
	estPerGenerator   = 24  // slice header per recorded generator
	estPerRule        = 112 // Rule struct + two itemset headers
	estPerCacheEntry  = 256 // cache key + ranking slice + stripe entry
	estPerItem        = 8   // one int item
)

// MemoryEstimate approximates the resident bytes of the currently
// served snapshot: the dataset's transactions, the frequent closed
// itemsets with their generators, the basis rules behind Recommend,
// and the recommendation cache. It is a model, not an accounting — Go
// gives no per-object sizes — but it is monotone in the quantities
// that actually dominate a snapshot's footprint, which is what a
// serving layer needs to budget many resident services against each
// other (see internal/tenant). The lazily built structures a Result
// may grow later (the full frequent family, the lattice) are not
// counted.
func (qs *QueryService) MemoryEstimate() int64 {
	st := qs.st.Load()
	var b int64
	if st.res != nil {
		d := st.res.Dataset()
		for _, tx := range d.Transactions() {
			b += int64(tx.Len())*estPerItem + estPerTransaction
		}
		for _, name := range d.Names() {
			b += int64(len(name)) + 16
		}
	}
	st.fc.Each(func(c closedset.Closed) bool {
		b += int64(c.Items.Len())*2*estPerItem + estPerClosed // items + interned key
		for _, g := range c.Generators {
			b += int64(g.Len())*estPerItem + estPerGenerator
		}
		return true
	})
	for _, r := range st.recRules {
		b += int64(r.Antecedent.Len()+r.Consequent.Len())*estPerItem + estPerRule
	}
	b += int64(st.recCache.entries()) * estPerCacheEntry
	return b
}

// NumTransactions returns |O| of the currently served dataset.
func (qs *QueryService) NumTransactions() int {
	return qs.st.Load().numTx
}

// MinConfidence returns the confidence threshold of the served
// approximate basis.
func (qs *QueryService) MinConfidence() float64 {
	return qs.st.Load().minConf
}

// ServedResult returns the mining Result backing the current snapshot,
// or nil for a collection-backed service. It is the anchor of the
// incremental refresh path: UpdateAppend extends the served result with
// an appended batch, and Swap installs its replacement. The result is
// shared with the serving path — treat it as read-only.
func (qs *QueryService) ServedResult() *Result {
	return qs.st.Load().res
}

// ServedBases returns the basis pair the current snapshot serves
// Recommend from. For a collection-backed service without generators
// the Exact slot is empty (no exact basis is derivable).
func (qs *QueryService) ServedBases() BasisSelection {
	return qs.st.Load().bases
}

// BasisRules constructs the named basis from the snapshot currently
// being served, at the given confidence threshold — the query-side
// door to every registered basis (the HTTP layer's /rules?basis=).
// It requires a result-backed service (NewQueryService or Swap); a
// collection-backed snapshot cannot build arbitrary bases and errors.
// Outputs are memoized on the snapshot's Result, so repeated requests
// for one basis are cheap; callers must not mutate the returned rules.
func (qs *QueryService) BasisRules(ctx context.Context, name string, minConf float64) (*RuleSet, error) {
	rs, _, err := qs.BasisRulesWithN(ctx, name, minConf)
	return rs, err
}

// BasisRulesWithN is BasisRules plus the transaction count of the
// snapshot that answered (see RuleWithN).
func (qs *QueryService) BasisRulesWithN(ctx context.Context, name string, minConf float64) (*RuleSet, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	st := qs.st.Load()
	if st.res == nil {
		return nil, 0, fmt.Errorf("closedrules: basis construction needs the mining result; this service was built from a detached collection")
	}
	rs, err := st.res.Basis(ctx, name, WithMinConfidence(minConf))
	if err != nil {
		return nil, 0, err
	}
	return rs, st.numTx, nil
}

// NumRules returns the number of basis rules available to Recommend.
func (qs *QueryService) NumRules() int {
	return len(qs.st.Load().recRules)
}

// Support answers supp(X) = supp(h(X)) from the closed itemsets; ok is
// false when X is not frequent at the mining threshold.
func (qs *QueryService) Support(ctx context.Context, x Itemset) (support int, ok bool, err error) {
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	s, ok := qs.st.Load().fc.SupportOf(x)
	return s, ok, nil
}

// Confidence measures the rule A → C as supp(h(A∪C)) / supp(h(A)) —
// the paper's derivation — and errors when either support is not
// derivable (the rule involves an infrequent itemset) or the sides
// overlap.
func (qs *QueryService) Confidence(ctx context.Context, antecedent, consequent Itemset) (float64, error) {
	r, err := qs.Rule(ctx, antecedent, consequent)
	if err != nil {
		return 0, err
	}
	return r.Confidence(), nil
}

// Rule reconstructs the fully measured rule A → C (support, antecedent
// support, and consequent support when derivable) from the condensed
// representation.
func (qs *QueryService) Rule(ctx context.Context, antecedent, consequent Itemset) (Rule, error) {
	r, _, err := qs.RuleWithN(ctx, antecedent, consequent)
	return r, err
}

// RuleWithN is Rule plus the transaction count of the snapshot that
// answered — the right denominator for measures derived from the rule
// (lift, relative support) when a Swap may land mid-request; reading
// NumTransactions separately could observe a different snapshot.
func (qs *QueryService) RuleWithN(ctx context.Context, antecedent, consequent Itemset) (Rule, int, error) {
	if err := ctx.Err(); err != nil {
		return Rule{}, 0, err
	}
	st := qs.st.Load()
	r, err := ruleFrom(st, antecedent, consequent)
	return r, st.numTx, err
}

// ruleFrom reconstructs the measured rule from one snapshot.
func ruleFrom(st *serviceState, antecedent, consequent Itemset) (Rule, error) {
	if antecedent.Intersect(consequent).Len() > 0 {
		return Rule{}, fmt.Errorf("closedrules: antecedent and consequent overlap")
	}
	u := antecedent.Union(consequent)
	supU, ok := st.fc.SupportOf(u)
	if !ok {
		return Rule{}, fmt.Errorf("closedrules: support of %v not derivable (not frequent at the mining threshold)", u)
	}
	supA, ok := st.fc.SupportOf(antecedent)
	if !ok {
		return Rule{}, fmt.Errorf("closedrules: support of %v not derivable (not frequent at the mining threshold)", antecedent)
	}
	r := Rule{
		Antecedent:        antecedent,
		Consequent:        consequent,
		Support:           supU,
		AntecedentSupport: supA,
	}
	if supC, ok := st.fc.SupportOf(consequent); ok {
		r.ConsequentSupport = supC
	}
	return r, nil
}

// Recommend returns up to k basis rules applicable to the observed
// itemset — antecedent covered by the observation, consequent not
// already fully observed — ranked by descending lift. Results are
// cached per (observation, k) until the next Swap.
func (qs *QueryService) Recommend(ctx context.Context, observed Itemset, k int) ([]Rule, error) {
	recs, _, err := qs.RecommendWithN(ctx, observed, k)
	return recs, err
}

// RecommendWithN is Recommend plus the transaction count of the
// snapshot that answered (see RuleWithN).
func (qs *QueryService) RecommendWithN(ctx context.Context, observed Itemset, k int) ([]Rule, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("closedrules: Recommend k %d < 1", k)
	}
	st := qs.st.Load()
	key := observed.Key() + "#" + strconv.Itoa(k)
	if cached, hit := st.recCache.get(key); hit {
		qs.cacheHits.Add(1)
		st.cacheHits.Add(1)
		// Hand out a copy: a caller re-sorting its result must not
		// corrupt the ranking served to the next cache hit.
		return append([]Rule(nil), cached...), st.numTx, nil
	}
	qs.cacheMisses.Add(1)
	st.cacheMisses.Add(1)

	applicable := rules.WithAntecedentSubsetOf(st.recRules, observed)
	novel := rules.Filter(applicable, func(r Rule) bool {
		return !observed.ContainsAll(r.Consequent)
	})
	top := rules.TopBy(novel, k, rules.ByLift(st.numTx))

	// The state may have been swapped while we computed; caching into
	// the old snapshot's stripes is still correct (they are keyed to
	// that snapshot and become garbage with it).
	st.recCache.put(key, top)
	return append([]Rule(nil), top...), st.numTx, nil
}
