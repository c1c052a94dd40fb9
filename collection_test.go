package closedrules

import (
	"context"
	"strings"
	"testing"
)

func storedCollection(t *testing.T) (*Result, *ClosedCollection) {
	t.Helper()
	d := classic(t)
	// The stored format carries generators only from a miner that
	// tracks them; the default miner (charm) does not.
	res, err := MineContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm("genclose"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.SaveClosedItemsets(&sb); err != nil {
		t.Fatal(err)
	}
	col, err := ReadClosedCollection(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return res, col
}

func TestCollectionRoundTrip(t *testing.T) {
	res, col := storedCollection(t)
	if col.Len() != res.NumClosed() {
		t.Fatalf("collection %d closed, result %d", col.Len(), res.NumClosed())
	}
	if col.NumTransactions() != 5 {
		t.Errorf("NumTransactions = %d", col.NumTransactions())
	}
}

func TestCollectionSupportsAndClosures(t *testing.T) {
	res, col := storedCollection(t)
	fi, err := res.FrequentItemsets()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fi {
		sup, ok := col.Support(f.Items)
		if !ok || sup != f.Support {
			t.Errorf("Support(%v) = %d,%v want %d", f.Items, sup, ok, f.Support)
		}
		wantCl, _ := res.Closure(f.Items)
		gotCl, ok := col.Closure(f.Items)
		if !ok || !gotCl.Items.Equal(wantCl.Items) {
			t.Errorf("Closure(%v) = %v want %v", f.Items, gotCl.Items, wantCl.Items)
		}
	}
	if _, ok := col.Support(Items(3)); ok {
		t.Error("infrequent item has support in collection")
	}
}

func TestCollectionBasesMatchResult(t *testing.T) {
	res, col := storedCollection(t)
	for _, minConf := range []float64{0, 0.7} {
		want, err := res.Bases(minConf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := col.LuxenburgerReduction(minConf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Approximate) {
			t.Fatalf("conf %v: collection %d rules, result %d",
				minConf, len(got), len(want.Approximate))
		}
		for i := range got {
			if got[i].Key() != want.Approximate[i].Key() {
				t.Fatalf("conf %v: rule %d differs", minConf, i)
			}
		}
	}
	gbRes, err := res.GenericBasis()
	if err != nil {
		t.Fatal(err)
	}
	gbCol, err := col.GenericBasis()
	if err != nil {
		t.Fatal(err)
	}
	if len(gbRes) != len(gbCol) {
		t.Fatalf("generic basis: collection %d, result %d", len(gbCol), len(gbRes))
	}
	ib, err := col.InformativeBasis(0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ib) == 0 {
		t.Error("empty informative basis from collection")
	}
	full, err := col.LuxenburgerFull(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 7 {
		t.Errorf("|Lux full| = %d, want 7", len(full))
	}
	if !strings.Contains(col.LatticeDOT(nil), "digraph lattice") {
		t.Error("bad DOT")
	}
}

func TestCollectionErrors(t *testing.T) {
	if _, err := NewClosedCollection(nil); err == nil {
		t.Error("empty collection accepted")
	}
	// Two incomparable closed sets without a bottom.
	bad := []ClosedItemset{
		{Items: Items(0), Support: 3},
		{Items: Items(1), Support: 3},
	}
	if _, err := NewClosedCollection(bad); err == nil {
		t.Error("bottomless collection accepted")
	}
	if _, err := ReadClosedCollection(strings.NewReader("garbage\tx\n")); err == nil {
		t.Error("garbage accepted")
	}
}
