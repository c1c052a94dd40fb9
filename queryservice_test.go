package closedrules

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func classicService(t *testing.T) *QueryService {
	t.Helper()
	res, err := MineContext(context.Background(), classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := NewQueryService(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func TestQueryServiceSupport(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	// Classic context: supp(C) = 4, supp(BE) = 4, supp(ABCE) = 2.
	cases := []struct {
		x    Itemset
		want int
	}{
		{Items(2), 4},
		{Items(1, 4), 4},
		{Items(0, 1, 2, 4), 2},
	}
	for _, tc := range cases {
		got, ok, err := qs.Support(ctx, tc.x)
		if err != nil || !ok || got != tc.want {
			t.Errorf("Support(%v) = %d, %v, %v; want %d", tc.x, got, ok, err, tc.want)
		}
	}
	// D = item 3 has support 1 < minsup: not derivable.
	if _, ok, err := qs.Support(ctx, Items(3)); ok || err != nil {
		t.Errorf("Support(D) ok = %v, err = %v; want not-frequent", ok, err)
	}
}

func TestQueryServiceConfidence(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	// C → A: supp(AC)/supp(C) = 3/4.
	conf, err := qs.Confidence(ctx, Items(2), Items(0))
	if err != nil || conf != 0.75 {
		t.Errorf("Confidence(C→A) = %v, %v; want 0.75", conf, err)
	}
	// B → E: exact rule.
	conf, err = qs.Confidence(ctx, Items(1), Items(4))
	if err != nil || conf != 1 {
		t.Errorf("Confidence(B→E) = %v, %v; want 1", conf, err)
	}
	// Overlapping sides are rejected.
	if _, err := qs.Confidence(ctx, Items(1), Items(1, 4)); err == nil {
		t.Error("overlapping rule accepted")
	}
	// Rules over infrequent itemsets are not derivable.
	if _, err := qs.Confidence(ctx, Items(3), Items(0)); err == nil {
		t.Error("infrequent antecedent accepted")
	}
	// The fully measured rule carries the consequent support.
	r, err := qs.Rule(ctx, Items(2), Items(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Support != 3 || r.AntecedentSupport != 4 || r.ConsequentSupport != 3 {
		t.Errorf("Rule(C→A) = %+v", r)
	}
}

func TestQueryServiceRecommend(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	// Observed {B}: the exact rule B → E applies and E is novel.
	recs, err := qs.Recommend(ctx, Items(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations for {B}")
	}
	for _, r := range recs {
		if !Items(1).ContainsAll(r.Antecedent) {
			t.Errorf("rule %v not applicable to {B}", r)
		}
		if Items(1).ContainsAll(r.Consequent) {
			t.Errorf("rule %v recommends nothing new", r)
		}
	}
	// Cached second call returns the same slice content.
	again, err := qs.Recommend(ctx, Items(1), 5)
	if err != nil || len(again) != len(recs) {
		t.Errorf("cached Recommend = %v, %v", again, err)
	}
	if _, err := qs.Recommend(ctx, Items(1), 0); err == nil {
		t.Error("k = 0 accepted")
	}
}

func TestRecommendCacheIsolation(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	recs, err := qs.Recommend(ctx, Items(1), 5)
	if err != nil || len(recs) == 0 {
		t.Fatalf("Recommend = %v, %v", recs, err)
	}
	// Mutating a returned slice must not corrupt the cached ranking.
	want := append([]Rule(nil), recs...)
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	recs[0] = Rule{}
	again, err := qs.Recommend(ctx, Items(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if again[i].Key() != want[i].Key() {
			t.Fatalf("cache corrupted by caller mutation: %v vs %v", again, want)
		}
	}
}

func TestQueryServiceContextCancelled(t *testing.T) {
	qs := classicService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := qs.Support(ctx, Items(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("Support err = %v", err)
	}
	if _, err := qs.Confidence(ctx, Items(2), Items(0)); !errors.Is(err, context.Canceled) {
		t.Errorf("Confidence err = %v", err)
	}
	if _, err := qs.Recommend(ctx, Items(1), 3); !errors.Is(err, context.Canceled) {
		t.Errorf("Recommend err = %v", err)
	}
}

func TestQueryServiceSwap(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	if qs.NumTransactions() != 5 {
		t.Fatalf("NumTransactions = %d", qs.NumTransactions())
	}
	// Re-mine a doubled dataset and hot-swap it in.
	d, err := NewDataset([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineContext(ctx, d, WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Swap(res); err != nil {
		t.Fatal(err)
	}
	if qs.NumTransactions() != 10 {
		t.Errorf("NumTransactions after Swap = %d, want 10", qs.NumTransactions())
	}
	sup, ok, err := qs.Support(ctx, Items(2))
	if err != nil || !ok || sup != 8 {
		t.Errorf("Support(C) after Swap = %d, %v, %v; want 8", sup, ok, err)
	}
	if err := qs.Swap(nil); err == nil {
		t.Error("Swap(nil) accepted")
	}
}

func TestQueryServiceFromCollection(t *testing.T) {
	ctx := context.Background()
	_, loaded := storedCollection(t)
	qs, err := NewQueryService(loaded, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := qs.Confidence(ctx, Items(2), Items(0))
	if err != nil || conf != 0.75 {
		t.Errorf("Confidence(C→A) = %v, %v; want 0.75", conf, err)
	}
	recs, err := qs.Recommend(ctx, Items(1), 3)
	if err != nil || len(recs) == 0 {
		t.Errorf("Recommend = %v, %v", recs, err)
	}
}

func TestQueryServiceServedBases(t *testing.T) {
	qs := classicService(t)
	sel := qs.ServedBases()
	if sel.Exact != "duquenne-guigues" || sel.Approximate != "luxenburger" {
		t.Errorf("ServedBases = %+v, want the paper's default pair", sel)
	}
}

func TestQueryServiceWithBases(t *testing.T) {
	ctx := context.Background()
	res, err := MineContext(ctx, classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := NewQueryServiceWithBases(res, 0.5, BasisSelection{Exact: "generic", Approximate: "informative"})
	if err != nil {
		t.Fatal(err)
	}
	sel := qs.ServedBases()
	if sel.Exact != "generic" || sel.Approximate != "informative" {
		t.Errorf("ServedBases = %+v, want generic/informative", sel)
	}
	// generic (7) + informative reduced at 0.5 (7).
	if qs.NumRules() != 14 {
		t.Errorf("NumRules = %d, want 14", qs.NumRules())
	}
	// The selection survives a hot swap.
	res2, err := MineContext(ctx, classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Swap(res2); err != nil {
		t.Fatal(err)
	}
	if sel := qs.ServedBases(); sel.Exact != "generic" || sel.Approximate != "informative" {
		t.Errorf("ServedBases after Swap = %+v", sel)
	}
	// A generator basis over a generator-less miner fails at build.
	resCharm, err := MineContext(ctx, classic(t), WithMinSupport(0.4), WithAlgorithm("charm"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQueryServiceWithBases(resCharm, 0.5, BasisSelection{Exact: "generic"}); err == nil {
		t.Error("generic basis over charm accepted")
	}
	if _, err := NewQueryServiceWithBases(res, 0.5, BasisSelection{Exact: "bogus"}); err == nil {
		t.Error("unknown basis accepted")
	}
}

func TestQueryServiceBasisRules(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	rs, err := qs.BasisRules(ctx, "luxenburger", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Basis != "luxenburger" || rs.Len() != 5 {
		t.Errorf("BasisRules(luxenburger, 0.5) = (%q, %d), want (luxenburger, 5)", rs.Basis, rs.Len())
	}
	if _, err := qs.BasisRules(ctx, "bogus", 0.5); err == nil {
		t.Error("unknown basis accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := qs.BasisRules(cancelled, "luxenburger", 0.5); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled BasisRules err = %v", err)
	}
}

func TestQueryServiceBasisRulesFromCollection(t *testing.T) {
	ctx := context.Background()
	// The stored collection carries generators, so a service over it
	// can build every basis, and serves the paper's pair by default.
	_, loaded := storedCollection(t)
	qs, err := NewQueryService(loaded, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sel := qs.ServedBases(); sel != defaultBasisSelection {
		t.Errorf("ServedBases = %+v, want %+v", sel, defaultBasisSelection)
	}
	for name, want := range map[string]int{
		"duquenne-guigues": 3, "luxenburger": 5, "generic": 7, "informative": 7,
	} {
		rs, err := qs.BasisRules(ctx, name, 0.5)
		if err != nil {
			t.Fatalf("BasisRules(%s): %v", name, err)
		}
		if rs.Len() != want {
			t.Errorf("BasisRules(%s, 0.5) has %d rules, want %d", name, rs.Len(), want)
		}
	}
}

// TestQueryServiceConcurrent hammers one service from 8 goroutines
// while a ninth keeps hot-swapping fresh results in; run under -race
// this is the serving-layer safety proof.
func TestQueryServiceConcurrent(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()

	res5, err := MineContext(ctx, classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	d10, err := NewDataset([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res10, err := MineContext(ctx, d10, WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		iters      = 400
	)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					if _, _, err := qs.Support(ctx, Items(r.Intn(5))); err != nil {
						errc <- fmt.Errorf("Support: %w", err)
						return
					}
				case 1:
					// C → A survives every swap (both datasets contain it).
					if _, err := qs.Confidence(ctx, Items(2), Items(0)); err != nil {
						errc <- fmt.Errorf("Confidence: %w", err)
						return
					}
				case 2:
					if _, err := qs.Recommend(ctx, Items(r.Intn(5)), 1+r.Intn(4)); err != nil {
						errc <- fmt.Errorf("Recommend: %w", err)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			res := res5
			if i%2 == 0 {
				res = res10
			}
			if err := qs.Swap(res); err != nil {
				errc <- fmt.Errorf("Swap: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestSnapshotCacheCounters pins the per-snapshot cache accounting: a
// Swap resets the snapshot hit/miss pair (the cache itself starts
// empty in the new snapshot) while the lifetime pair keeps
// accumulating, so the snapshot hit ratio describes the snapshot
// serving now instead of conflating every snapshot since boot.
func TestSnapshotCacheCounters(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	// One miss, then two hits against the first snapshot.
	for i := 0; i < 3; i++ {
		if _, err := qs.Recommend(ctx, Items(1), 5); err != nil {
			t.Fatal(err)
		}
	}
	st := qs.Stats()
	if st.SnapshotCacheHits != 2 || st.SnapshotCacheMisses != 1 {
		t.Fatalf("snapshot counters before Swap = %d/%d, want 2/1", st.SnapshotCacheHits, st.SnapshotCacheMisses)
	}
	if got, want := st.SnapshotHitRatio(), 2.0/3.0; got != want {
		t.Fatalf("SnapshotHitRatio = %v, want %v", got, want)
	}

	res, err := MineContext(ctx, classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Swap(res); err != nil {
		t.Fatal(err)
	}
	st = qs.Stats()
	if st.SnapshotCacheHits != 0 || st.SnapshotCacheMisses != 0 {
		t.Fatalf("snapshot counters after Swap = %d/%d, want 0/0", st.SnapshotCacheHits, st.SnapshotCacheMisses)
	}
	if st.SnapshotHitRatio() != 0 {
		t.Fatalf("SnapshotHitRatio after Swap = %v, want 0", st.SnapshotHitRatio())
	}
	// Lifetime counters survived the Swap.
	if st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("lifetime counters after Swap = %d/%d, want 2/1", st.CacheHits, st.CacheMisses)
	}
	// The new snapshot starts counting from zero.
	if _, err := qs.Recommend(ctx, Items(1), 5); err != nil {
		t.Fatal(err)
	}
	st = qs.Stats()
	if st.SnapshotCacheHits != 0 || st.SnapshotCacheMisses != 1 {
		t.Fatalf("snapshot counters after post-Swap miss = %d/%d, want 0/1", st.SnapshotCacheHits, st.SnapshotCacheMisses)
	}
}

func TestMemoryEstimate(t *testing.T) {
	qs := classicService(t)
	base := qs.MemoryEstimate()
	if base <= 0 {
		t.Fatalf("MemoryEstimate() = %d, want > 0", base)
	}
	// The recommend index counts: the same snapshot without its lifts,
	// ids and group offsets estimates smaller by exactly their bytes.
	st := qs.st.Load()
	bare := &QueryService{}
	bare.st.Store(&serviceState{res: st.res, rec: recIndex{rules: st.rec.rules}, recCache: newRecCache()})
	index := int64(len(st.rec.lift))*8 + int64(len(st.rec.ids)+len(st.rec.off))*4
	if got := base - bare.MemoryEstimate(); index == 0 || got != index {
		t.Errorf("estimate counts %d bytes of recommend index, want %d", got, index)
	}
	// Warming the recommendation cache grows the estimate: the cache
	// entries are part of the resident footprint the tenant pool
	// budgets against.
	if _, err := qs.Recommend(context.Background(), Items(0), 3); err != nil {
		t.Fatal(err)
	}
	warmed := qs.MemoryEstimate()
	if warmed <= base {
		t.Errorf("estimate after cache warm = %d, want > %d", warmed, base)
	}
	// A strictly larger dataset mined at the same threshold estimates
	// strictly larger (more transactions, at least as many closed sets).
	var tx [][]int
	for i := 0; i < 50; i++ {
		tx = append(tx, [][]int{{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4}}...)
	}
	d, err := NewDataset(tx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineContext(context.Background(), d, WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewQueryService(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := big.MemoryEstimate(); got <= base {
		t.Errorf("50x dataset estimate = %d, want > %d", got, base)
	}
}
