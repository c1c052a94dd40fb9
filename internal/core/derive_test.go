package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"closedrules/internal/lattice"
	"closedrules/internal/naive"
	"closedrules/internal/rules"
	"closedrules/internal/testgen"
)

// TestDeriveAllRulesMatchesGenerate is the full "generating set" round
// trip: DG + Luxenburger reduction + FC regenerate *exactly* the rule
// set that direct measurement produces, at several confidence levels.
func TestDeriveAllRulesMatchesGenerate(t *testing.T) {
	r := rand.New(rand.NewSource(701))
	for iter := 0; iter < 30; iter++ {
		d := testgen.Random(r, 16, 8, 0.45)
		minSup := 1 + r.Intn(3)
		ctx := d.Context()
		fam := naive.FrequentItemsets(ctx, minSup)
		fc := naive.ClosedItemsets(ctx, minSup)
		lat := lattice.Build(fc)
		dg, err := DuquenneGuigues(context.Background(), ctx.NumObjects, fc)
		if err != nil {
			t.Fatal(err)
		}
		red, err := LuxenburgerReduction(lat, fc, LuxenburgerOptions{IncludeEmptyAntecedent: true})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(ctx.NumObjects, dg, red)
		if err != nil {
			t.Fatal(err)
		}

		for _, minConf := range []float64{0, 0.5, 0.9, 1} {
			derived, err := DeriveAllRules(eng, fc, minConf, 25)
			if err != nil {
				t.Fatal(err)
			}
			measured, err := rules.Generate(fam, minConf)
			if err != nil {
				t.Fatal(err)
			}
			if len(derived) != len(measured) {
				t.Fatalf("iter %d conf %v: derived %d rules, measured %d",
					iter, minConf, len(derived), len(measured))
			}
			for i := range measured {
				if derived[i].Key() != measured[i].Key() ||
					derived[i].Support != measured[i].Support ||
					math.Abs(derived[i].Confidence()-measured[i].Confidence()) > 1e-12 {
					t.Fatalf("iter %d conf %v: rule %d: derived %v, measured %v",
						iter, minConf, i, derived[i], measured[i])
				}
			}
		}
	}
}

func TestDeriveAllRulesValidation(t *testing.T) {
	eng := &Engine{imps: NewImplications(nil), supports: map[string]int{}}
	if _, err := DeriveAllRules(eng, naive.ClosedItemsets(testgen.Random(rand.New(rand.NewSource(1)), 5, 3, 0.5).Context(), 1), 1.5, 25); err == nil {
		t.Error("bad minConf accepted")
	}
}
