package closedrules

import (
	"context"
	"testing"
)

func TestGenerateQuestViaFacade(t *testing.T) {
	ds, err := GenerateQuest(QuestT10I4(300, 80, 5))
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTransactions() != 300 || ds.NumItems() != 80 {
		t.Errorf("dims %d×%d", ds.NumTransactions(), ds.NumItems())
	}
	ds2, err := GenerateQuest(QuestT20I6(100, 80, 5))
	if err != nil {
		t.Fatal(err)
	}
	if s := ds2.Stats(); s.AvgLen < 10 {
		t.Errorf("T20 avg length %v too small", s.AvgLen)
	}
}

func TestGenerateCensusViaFacade(t *testing.T) {
	ds, err := GenerateCensus(CensusC20(120, 5))
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTransactions() != 120 {
		t.Errorf("transactions = %d", ds.NumTransactions())
	}
	ds2, err := GenerateCensus(CensusC73(50, 5))
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Transaction(0).Len() != 73 {
		t.Errorf("C73 row length = %d", ds2.Transaction(0).Len())
	}
}

func TestGenerateMushroomViaFacade(t *testing.T) {
	ds, err := GenerateMushroom(MushroomConfig{NumObjects: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTransactions() != 60 {
		t.Errorf("transactions = %d", ds.NumTransactions())
	}
	if ds.ItemName(0) != "class=e" {
		t.Errorf("name = %q", ds.ItemName(0))
	}
}

// TestGeneratedPipelinesEndToEnd pushes each generated regime through
// the full pipeline once — the integration smoke test for the public
// API surface.
func TestGeneratedPipelinesEndToEnd(t *testing.T) {
	type workload struct {
		name   string
		ds     *Dataset
		minSup float64
	}
	quest, err := GenerateQuest(QuestT10I4(500, 60, 8))
	if err != nil {
		t.Fatal(err)
	}
	census, err := GenerateCensus(CensusC20(400, 8))
	if err != nil {
		t.Fatal(err)
	}
	mush, err := GenerateMushroom(MushroomConfig{NumObjects: 400, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []workload{
		{"quest", quest, 0.02},
		{"census", census, 0.5},
		{"mushroom", mush, 0.3},
	} {
		res, err := MineContext(context.Background(), w.ds, WithMinSupport(w.minSup))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		exact, approx := paperBases(t, res, 0.5)
		all, err := res.AllRules(0.5)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if size := exact.Len() + approx.Len(); len(all) > 0 && size >= len(all) {
			t.Errorf("%s: bases (%d) not smaller than rules (%d)",
				w.name, size, len(all))
		}
		// Engine round trip on a sample of rules.
		eng, err := res.DerivationEngine(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i, want := range all {
			if i%25 != 0 {
				continue
			}
			got, err := eng.Rule(want.Antecedent, want.Consequent)
			if err != nil {
				t.Fatalf("%s: rule %v: %v", w.name, want, err)
			}
			if got.Support != want.Support {
				t.Fatalf("%s: rule %v support %d, want %d",
					w.name, want, got.Support, want.Support)
			}
		}
	}
}
