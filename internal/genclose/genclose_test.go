package genclose

import (
	"context"
	"testing"

	"closedrules/internal/dataset"
	"closedrules/internal/itemset"
)

// classic is the paper's worked example: 5 objects over items
// 0..4 (A..E).
func classic(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.FromTransactions([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMineClassic pins the worked example of the paper at minsup 2/5:
// the six frequent closed itemsets with their supports, and the
// minimal generators the generic basis consumes.
func TestMineClassic(t *testing.T) {
	fc, err := Mine(classic(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		items itemset.Itemset
		sup   int
		gens  []itemset.Itemset
	}{
		{itemset.Empty(), 5, []itemset.Itemset{itemset.Empty()}},
		{itemset.Of(2), 4, []itemset.Itemset{itemset.Of(2)}},
		{itemset.Of(0, 2), 3, []itemset.Itemset{itemset.Of(0)}},
		{itemset.Of(1, 4), 4, []itemset.Itemset{itemset.Of(1), itemset.Of(4)}},
		{itemset.Of(1, 2, 4), 3, []itemset.Itemset{itemset.Of(1, 2), itemset.Of(2, 4)}},
		{itemset.Of(0, 1, 2, 4), 2, []itemset.Itemset{itemset.Of(0, 1), itemset.Of(0, 4)}},
		{itemset.Of(0, 2, 3), 1, nil}, // infrequent at 2: must be absent
	}
	if fc.Len() != 6 {
		t.Fatalf("|FC| = %d, want 6", fc.Len())
	}
	for _, w := range want[:6] {
		c, ok := fc.Get(w.items)
		if !ok {
			t.Fatalf("closed %v missing", w.items)
		}
		if c.Support != w.sup {
			t.Errorf("supp(%v) = %d, want %d", w.items, c.Support, w.sup)
		}
		if len(c.Generators) != len(w.gens) {
			t.Fatalf("%v has %d generators %v, want %v", w.items, len(c.Generators), c.Generators, w.gens)
		}
		for _, g := range w.gens {
			found := false
			for _, got := range c.Generators {
				if got.Equal(g) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%v: generator %v missing (got %v)", w.items, g, c.Generators)
			}
		}
	}
	if fc.Contains(want[6].items) {
		t.Errorf("infrequent %v present", want[6].items)
	}
}

func TestMineValidation(t *testing.T) {
	if _, err := Mine(classic(t), 0); err == nil {
		t.Error("minSup 0 accepted")
	}
}

func TestMineThresholdAboveData(t *testing.T) {
	fc, err := Mine(classic(t), 6)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Len() != 0 {
		t.Fatalf("|FC| = %d at minSup 6 over 5 transactions, want 0", fc.Len())
	}
}

func TestMineCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineContext(ctx, classic(t), 2); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
