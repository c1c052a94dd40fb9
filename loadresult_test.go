package closedrules

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// reload saves res's closed itemsets and reads them back with
// LoadResult.
func reload(t testing.TB, res *Result) *Result {
	t.Helper()
	var buf bytes.Buffer
	if err := res.SaveClosedItemsets(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// storedCollection mines the classic context with genclose, whose
// stored closed itemsets carry their generators, and loads them back.
func storedCollection(t *testing.T) (mined, loaded *Result) {
	t.Helper()
	res, err := MineContext(context.Background(), classic(t), WithMinSupport(0.4), WithAlgorithm("genclose"))
	if err != nil {
		t.Fatal(err)
	}
	return res, reload(t, res)
}

func TestCollectionRoundTrip(t *testing.T) {
	res, loaded := storedCollection(t)
	if !reflect.DeepEqual(loaded.ClosedItemsets(), res.ClosedItemsets()) {
		t.Fatalf("loaded closed itemsets differ:\n%v\nwant\n%v", loaded.ClosedItemsets(), res.ClosedItemsets())
	}
	if loaded.NumTransactions() != 5 {
		t.Errorf("NumTransactions = %d, want 5", loaded.NumTransactions())
	}
	if loaded.MinSupport() != 2 {
		t.Errorf("MinSupport = %d, want 2 (the smallest stored support)", loaded.MinSupport())
	}
	if loaded.MinerName() != "loaded" {
		t.Errorf("MinerName = %q, want loaded", loaded.MinerName())
	}
	if !loaded.HasGenerators() {
		t.Error("genclose collection lost its generators")
	}
	if loaded.Dataset() != nil {
		t.Error("loaded result has a dataset")
	}
}

func TestCollectionSupportsAndClosures(t *testing.T) {
	res, loaded := storedCollection(t)
	fi, err := res.FrequentItemsets()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fi {
		sup, ok := loaded.Support(f.Items)
		if !ok || sup != f.Support {
			t.Errorf("Support(%v) = %d,%v want %d", f.Items, sup, ok, f.Support)
		}
		wantCl, _ := res.Closure(f.Items)
		gotCl, ok := loaded.Closure(f.Items)
		if !ok || !gotCl.Items.Equal(wantCl.Items) {
			t.Errorf("Closure(%v) = %v want %v", f.Items, gotCl.Items, wantCl.Items)
		}
	}
	if _, ok := loaded.Support(Items(3)); ok {
		t.Error("infrequent item has support in the loaded result")
	}
}

func TestCollectionBasesMatchResult(t *testing.T) {
	_, loaded := storedCollection(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts []BasisOption
		want int
	}{
		{"duquenne-guigues", nil, 3},
		{"luxenburger", nil, 5},
		{"luxenburger", []BasisOption{WithReduction(false)}, 7},
		{"generic", nil, 7},
		{"informative", []BasisOption{WithMinConfidence(0.5)}, 7},
	} {
		rs, err := loaded.Basis(ctx, tc.name, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rs.Len() != tc.want {
			t.Errorf("|%s| = %d, want %d", tc.name, rs.Len(), tc.want)
		}
	}
	if !strings.Contains(loaded.LatticeDOT(), "digraph lattice") {
		t.Error("bad DOT")
	}
}

func TestCollectionErrors(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"empty", ""},
		{"header only", "# closedrules closed-itemset collection v1\n"},
		// Two incomparable closed sets without a bottom.
		{"no bottom", "3\t0\n3\t1\n"},
		{"garbage", "garbage\tx\n"},
	} {
		if _, err := LoadResult(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestLoadResultWithoutTransactions pins what a loaded result refuses
// because it has no transactions, and that everything else stays safe
// to call on it.
func TestLoadResultWithoutTransactions(t *testing.T) {
	ctx := context.Background()
	charm, err := MineContext(ctx, classic(t), WithMinSupport(0.4), WithAlgorithm("charm"))
	if err != nil {
		t.Fatal(err)
	}
	loaded := reload(t, charm)
	if loaded.HasGenerators() {
		t.Fatal("charm collection claims generators")
	}
	if _, err := loaded.FrequentItemsets(); err == nil || !strings.Contains(err.Error(), "transactions") {
		t.Errorf("FrequentItemsets err = %v, want one naming the missing transactions", err)
	}
	if _, err := loaded.AllRules(0.5); err == nil || !strings.Contains(err.Error(), "transactions") {
		t.Errorf("AllRules err = %v, want one naming the missing transactions", err)
	}
	appended, err := NewDataset([][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UpdateAppend(ctx, loaded, appended, WithMinSupport(0.4)); !errors.Is(err, ErrIncremental) {
		t.Errorf("UpdateAppend err = %v, want ErrIncremental", err)
	}
	// No transactions to re-mine: resolution is not offered, and the
	// registry's requirement check refuses.
	_, err = loaded.Basis(ctx, "generic", WithGeneratorResolution())
	if err == nil || !strings.Contains(err.Error(), "needs minimal generators") {
		t.Errorf("generic with resolution err = %v, want the requirement error", err)
	}
	qs, err := NewQueryService(loaded, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if qs.NumTransactions() != 5 {
		t.Errorf("served NumTransactions = %d, want 5", qs.NumTransactions())
	}
	if qs.MemoryEstimate() <= 0 {
		t.Errorf("MemoryEstimate = %d", qs.MemoryEstimate())
	}
	if !strings.Contains(loaded.LatticeDOT(), "digraph lattice") {
		t.Error("bad DOT")
	}
}

// TestLoadResultPartialGenerators: a stored FC with one record's
// generators stripped has no complete generator family, so it must
// not serve the generic basis (it would silently drop rules); the
// default pair still serves, Duquenne–Guigues included.
func TestLoadResultPartialGenerators(t *testing.T) {
	res, _ := storedCollection(t)
	var buf bytes.Buffer
	if err := res.SaveClosedItemsets(&buf); err != nil {
		t.Fatal(err)
	}
	const record = "4\t1 4\t1\t4" // BE, generators B and E
	text := buf.String()
	if !strings.Contains(text, record+"\n") {
		t.Fatalf("stored FC lacks %q:\n%s", record, text)
	}
	text = strings.Replace(text, record+"\n", "4\t1 4\n", 1)
	loaded, err := LoadResult(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.HasGenerators() {
		t.Fatal("partially stripped FC reports generators")
	}
	if _, err := NewQueryServiceWithBases(loaded, 0, BasisSelection{Exact: "generic"}); err == nil {
		t.Error("generic basis served from a partial generator family")
	}
	qs, err := NewQueryService(loaded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sel := qs.ServedBases(); sel != defaultBasisSelection {
		t.Errorf("ServedBases = %+v, want %+v", sel, defaultBasisSelection)
	}
	want, err := NewQueryService(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if qs.NumRules() != want.NumRules() {
		t.Errorf("NumRules = %d, want %d as from the mined result", qs.NumRules(), want.NumRules())
	}
}
