package closedrules

import (
	"context"
	"strings"
	"testing"
)

// minedBases mines the classic context and returns the result with
// its Duquenne–Guigues and reduced Luxenburger bases.
func minedBases(t *testing.T) (res *Result, exact, approx *RuleSet) {
	t.Helper()
	res, err := MineContext(context.Background(), classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	exact, approx = paperBases(t, res, 0)
	return res, exact, approx
}

func TestRulesJSONRoundTripViaFacade(t *testing.T) {
	_, _, approx := minedBases(t)
	var sb strings.Builder
	if err := WriteRulesJSON(&sb, approx.Rules); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRulesJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != approx.Len() {
		t.Fatalf("round trip: %d != %d", len(got), approx.Len())
	}
}

func TestRulesCSVRoundTripViaFacade(t *testing.T) {
	_, exact, _ := minedBases(t)
	var sb strings.Builder
	if err := WriteRulesCSV(&sb, exact.Rules); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRulesCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != exact.Len() {
		t.Fatalf("round trip: %d != %d", len(got), exact.Len())
	}
}

func TestRuleFilteringViaFacade(t *testing.T) {
	res, _, _ := minedBases(t)
	all, err := res.AllRules(0)
	if err != nil {
		t.Fatal(err)
	}
	// Item 3 (D) is infrequent: no rules mention it.
	if got := RulesWithItem(all, 3); len(got) != 0 {
		t.Errorf("RulesWithItem(D) = %d rules", len(got))
	}
	pred := RulesPredicting(all, 0) // rules concluding A
	for _, r := range pred {
		if !r.Consequent.Contains(0) {
			t.Errorf("rule %v does not predict A", r)
		}
	}
	if len(pred) == 0 {
		t.Error("no rules predicting A")
	}
	// Rules applicable when only C is observed: antecedent ⊆ {C}.
	app := RulesApplicableTo(all, Items(2))
	for _, r := range app {
		if !Items(2).ContainsAll(r.Antecedent) {
			t.Errorf("rule %v not applicable to {C}", r)
		}
	}
	// Custom predicate.
	exact := FilterRules(all, func(r Rule) bool { return r.IsExact() })
	for _, r := range exact {
		if !r.IsExact() {
			t.Errorf("non-exact rule %v", r)
		}
	}
}

func TestTopRulesByLiftViaFacade(t *testing.T) {
	res, _, _ := minedBases(t)
	all, err := res.AllRules(0)
	if err != nil {
		t.Fatal(err)
	}
	top := TopRulesByLift(all, 3, res.Dataset().NumTransactions())
	if len(top) != 3 {
		t.Fatalf("top = %d rules", len(top))
	}
	lift := func(r Rule) float64 {
		m, err := RuleMetrics(r, res.Dataset().NumTransactions())
		if err != nil {
			return -1
		}
		return m.Lift
	}
	if lift(top[0]) < lift(top[1]) || lift(top[1]) < lift(top[2]) {
		t.Errorf("top rules not sorted by lift: %v %v %v",
			lift(top[0]), lift(top[1]), lift(top[2]))
	}
}

func TestDeriveAllRulesViaFacade(t *testing.T) {
	res, _, _ := minedBases(t)
	for _, minConf := range []float64{0, 0.6, 1} {
		derived, err := res.DeriveAllRules(minConf)
		if err != nil {
			t.Fatal(err)
		}
		measured, err := res.AllRules(minConf)
		if err != nil {
			t.Fatal(err)
		}
		if len(derived) != len(measured) {
			t.Fatalf("conf %v: derived %d, measured %d", minConf, len(derived), len(measured))
		}
		for i := range measured {
			if derived[i].Key() != measured[i].Key() || derived[i].Support != measured[i].Support {
				t.Fatalf("conf %v: rule %d differs", minConf, i)
			}
		}
	}
}

func TestSaveLoadClosedItemsets(t *testing.T) {
	res, _, _ := minedBases(t)
	loaded := reload(t, res).ClosedItemsets()
	want := res.ClosedItemsets()
	if len(loaded) != len(want) {
		t.Fatalf("loaded %d closed itemsets, want %d", len(loaded), len(want))
	}
	for i := range want {
		if !loaded[i].Items.Equal(want[i].Items) || loaded[i].Support != want[i].Support {
			t.Errorf("closed itemset %d differs", i)
		}
		if len(loaded[i].Generators) != len(want[i].Generators) {
			t.Errorf("closed itemset %d lost generators", i)
		}
	}
}

func TestMineFrequentAllBaselinesAgree(t *testing.T) {
	d := classic(t)
	ctx := context.Background()
	ap, err := MineFrequentContext(ctx, d, WithMinSupport(0.4), WithAlgorithm("apriori"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"eclat", "declat", "fpgrowth", "pascal"} {
		got, err := MineFrequentContext(ctx, d, WithMinSupport(0.4), WithAlgorithm(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(ap) {
			t.Fatalf("%s: %d itemsets, apriori %d", name, len(got), len(ap))
		}
		for i := range ap {
			if !got[i].Items.Equal(ap[i].Items) || got[i].Support != ap[i].Support {
				t.Fatalf("%s: itemset %d differs", name, i)
			}
		}
	}
}
