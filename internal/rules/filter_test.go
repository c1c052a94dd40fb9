package rules

import (
	"math/rand"
	"reflect"
	"testing"

	"closedrules/internal/itemset"
)

// TestMinConfidenceMatchesFilter checks the count-first MinConfidence
// against the plain Filter form it replaced — same rules, same order,
// nil when nothing is kept — and that it allocates at most once.
func TestMinConfidenceMatchesFilter(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	list := make([]Rule, 500)
	for i := range list {
		ante := r.Intn(20) // 0: a rule whose confidence reads 0
		sup := 0
		if ante > 0 {
			sup = 1 + r.Intn(ante)
		}
		list[i] = Rule{
			Antecedent:        itemset.Of(r.Intn(10)),
			Consequent:        itemset.Of(10 + r.Intn(10)),
			Support:           sup,
			AntecedentSupport: ante,
			ConsequentSupport: sup,
		}
	}
	for _, c := range []float64{-1, 0, 0.25, 0.5, 0.9, 1, 1.5} {
		want := Filter(list, func(r Rule) bool { return r.Confidence() >= c })
		got := MinConfidence(list, c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("c=%v: %d rules, want %d", c, len(got), len(want))
		}
		if len(got) != cap(got) {
			t.Errorf("c=%v: len %d, cap %d; want an exact-size result", c, len(got), cap(got))
		}
		if n := testing.AllocsPerRun(20, func() { MinConfidence(list, c) }); n > 1 {
			t.Errorf("c=%v: %v allocs per run, want ≤ 1", c, n)
		}
	}
	if got := MinConfidence(list, 2); got != nil {
		t.Errorf("nothing kept: got %v, want nil", got)
	}
	if got := MinConfidence(nil, 0); got != nil {
		t.Errorf("empty list: got %v, want nil", got)
	}
}
