package closedrules

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"closedrules/internal/gen"
	"closedrules/internal/rules"
	"closedrules/internal/testgen"
)

// servedPairs are the four exact × approximate basis pairs a
// QueryService can serve.
var servedPairs = []BasisSelection{
	{Exact: "duquenne-guigues", Approximate: "luxenburger"},
	{Exact: "duquenne-guigues", Approximate: "informative"},
	{Exact: "generic", Approximate: "luxenburger"},
	{Exact: "generic", Approximate: "informative"},
}

// servedRules rebuilds the rules a service over res serves, through
// the public Basis API: the exact basis, then the approximate one at
// minConf.
func servedRules(t *testing.T, res *Result, sel BasisSelection, minConf float64) []Rule {
	t.Helper()
	ctx := context.Background()
	exact, err := res.Basis(ctx, sel.Exact)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := res.Basis(ctx, sel.Approximate, WithMinConfidence(minConf))
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]Rule(nil), exact.Rules...), approx.Rules...)
}

// scanRecommend is the oracle for Recommend's index: every served rule
// filtered down to the applicable-and-novel ones, ranked by TopBy.
func scanRecommend(served []Rule, numTx int, observed Itemset, k int) []Rule {
	applicable := rules.WithAntecedentSubsetOf(served, observed)
	novel := rules.Filter(applicable, func(r Rule) bool { return !observed.ContainsAll(r.Consequent) })
	// Recommend hands out a copy, which is nil for an empty ranking.
	return append([]Rule(nil), rules.TopBy(novel, k, rules.ByLift(numTx))...)
}

// indexBaskets is every itemset over the dataset's items, plus baskets
// holding an item above the largest served one and a negative id.
func indexBaskets(numItems int) []Itemset {
	var out []Itemset
	Items(seq(numItems)...).Subsets(func(s Itemset) bool {
		out = append(out, s.Clone())
		return true
	})
	return append(out,
		Items(numItems+3), Items(0, numItems), Items(0, 1, math.MaxInt),
		Items(-1), Items(-1, 0), Items(-5, 1, numItems+1))
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// assertRecommendMatchesScan checks every (basket, k) answer of qs
// against the scan oracle over res.
func assertRecommendMatchesScan(t *testing.T, qs *QueryService, res *Result, sel BasisSelection, minConf float64, baskets []Itemset) {
	t.Helper()
	ctx := context.Background()
	served := servedRules(t, res, sel, minConf)
	for _, k := range []int{1, 5, qs.NumRules() + 1, math.MaxInt} {
		for _, x := range baskets {
			got, err := qs.Recommend(ctx, x, k)
			if err != nil {
				t.Fatalf("Recommend(%v, %d): %v", x, k, err)
			}
			if want := scanRecommend(served, res.NumTransactions(), x, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("Recommend(%v, %d)\n got %v\nwant %v", x, k, got, want)
			}
		}
	}
}

// TestRecommendIndexMatchesScan is the differential proof of the
// recommend index: on the classic context and the random datasets of
// TestBasisEquivalenceRandom, for every served pair and several
// confidence thresholds, every answer equals the old filter-and-sort
// scan, before and after a Swap to a result over appended rows.
func TestRecommendIndexMatchesScan(t *testing.T) {
	ctx := context.Background()
	type dataCase struct {
		d      *Dataset
		minSup int
	}
	cases := []dataCase{{classic(t), 2}}
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 10; iter++ {
		cases = append(cases, dataCase{testgen.Random(r, 25, 8, 0.45), 1 + r.Intn(3)})
	}
	for ci, c := range cases {
		res, err := MineContext(ctx, c.d, WithAbsoluteMinSupport(c.minSup), WithAlgorithm("genclose"))
		if err != nil {
			t.Fatal(err)
		}
		// The appended result: UpdateAppend's, re-mined with genclose
		// when the pair needs generators (an incremental result has none).
		inc, err := UpdateAppend(ctx, res, testgen.Random(r, 6, c.d.NumItems()+1, 0.45), WithAbsoluteMinSupport(c.minSup))
		if err != nil {
			t.Fatal(err)
		}
		regen, err := MineContext(ctx, inc.Dataset(), WithAbsoluteMinSupport(c.minSup), WithAlgorithm("genclose"))
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range servedPairs {
			for _, minConf := range []float64{0, 0.5, 0.8} {
				t.Run(fmt.Sprintf("data%d/%s+%s/conf%v", ci, sel.Exact, sel.Approximate, minConf), func(t *testing.T) {
					qs, err := NewQueryServiceWithBases(res, minConf, sel)
					if err != nil {
						t.Fatal(err)
					}
					assertRecommendMatchesScan(t, qs, res, sel, minConf, indexBaskets(c.d.NumItems()))
					next := inc
					if sel.NeedsGenerators() {
						next = regen
					}
					if err := qs.Swap(next); err != nil {
						t.Fatal(err)
					}
					assertRecommendMatchesScan(t, qs, next, sel, minConf, indexBaskets(next.Dataset().NumItems()))
				})
			}
		}
	}
}

// TestRecIndexEmptyAntecedent covers the index's empty-antecedent
// group, which the served built-in bases never fill: their engine
// variants keep the ∅ → X rules, which apply to every basket.
func TestRecIndexEmptyAntecedent(t *testing.T) {
	ctx := context.Background()
	res, err := MineContext(ctx, classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	withEmpty := basisConfig{reduced: true, includeEmpty: true}
	dg, err := res.basisWith(ctx, "duquenne-guigues", withEmpty)
	if err != nil {
		t.Fatal(err)
	}
	lux, err := res.basisWith(ctx, "luxenburger", withEmpty)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := newRecIndex(dg.Rules, lux.Rules, 0, res.NumTransactions())
	if err != nil {
		t.Fatal(err)
	}
	if ix.off[1] == 0 {
		t.Fatal("no empty-antecedent rule to cover")
	}
	served := append(append([]Rule(nil), dg.Rules...), lux.Rules...)
	for _, k := range []int{1, 5, math.MaxInt} {
		for _, x := range indexBaskets(classic(t).NumItems()) {
			want := scanRecommend(served, res.NumTransactions(), x, k)
			if got := ix.top(x, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("top(%v, %d)\n got %v\nwant %v", x, k, got, want)
			}
		}
	}
}

// mushroomService serves MUSHROOMS* (2,000 objects) at minsup 0.1 and
// minConf 0.5, with the paper's default pair.
func mushroomService(tb testing.TB) *QueryService {
	tb.Helper()
	d, err := gen.Mushroom(gen.MushroomConfig{NumObjects: 2000, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := MineContext(context.Background(), d, WithMinSupport(0.1))
	if err != nil {
		tb.Fatal(err)
	}
	qs, err := NewQueryService(res, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	return qs
}

// missBaskets draws n distinct baskets of 2–4 items, each a subset of
// one object of the served dataset so that rules apply to it; the
// first Recommend of each misses the cache.
func missBaskets(qs *QueryService, n int, seed int64) []Itemset {
	txs := qs.ServedResult().Dataset().Transactions()
	r := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []Itemset
	for len(out) < n {
		tx := txs[r.Intn(len(txs))]
		perm := r.Perm(len(tx))[:2+r.Intn(3)]
		b := make([]int, len(perm))
		for i, p := range perm {
			b[i] = tx[p]
		}
		if x := Items(b...); !seen[x.Key()] {
			seen[x.Key()] = true
			out = append(out, x)
		}
	}
	return out
}

// TestRecommendMissAllocations guards the miss path's allocations: the
// cache key, the ranking and the caller's copy, whatever the number of
// served rules, so no per-rule slice creeps back in. A k far above the
// number of rules must not allocate k slots.
func TestRecommendMissAllocations(t *testing.T) {
	qs := mushroomService(t)
	ctx := context.Background()
	const runs = 200
	baskets := missBaskets(qs, runs+1, 1)
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := qs.Recommend(ctx, baskets[i], 5); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if st := qs.Stats(); st.CacheHits != 0 {
		t.Fatalf("%d cache hits; every call must miss", st.CacheHits)
	}
	// key + ranking + copy; AllocsPerRun rounds down, which absorbs the
	// cache stripe's amortized map growth.
	if allocs > 3 {
		t.Errorf("a Recommend miss over %d rules allocates %.2f times, want ≤ 3", qs.NumRules(), allocs)
	}

	// One object's items: many rules apply, and each answer costs the
	// heap, the ranking and the copy, all sized by the hits.
	x := qs.ServedResult().Dataset().Transactions()[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, err := qs.Recommend(ctx, x, math.MaxInt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 10 {
		t.Fatalf("%d recommendations for %v, want a basket many rules apply to", len(recs), x)
	}
	limit := 3*uint64(len(recs))*uint64(unsafe.Sizeof(Rule{})) + 64<<10
	if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
		t.Errorf("Recommend(%v, MaxInt) allocated %d bytes for %d rules, want ≤ %d", x, grew, len(recs), limit)
	}
}
