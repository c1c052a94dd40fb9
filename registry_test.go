package closedrules

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestRegistryHasAllBuiltins(t *testing.T) {
	wantClosed := []string{"aclose", "charm", "close", "genclose", "pcharm", "pgenclose", "titanic"}
	if got := ClosedMiners(); !reflect.DeepEqual(got, wantClosed) {
		t.Errorf("ClosedMiners() = %v, want %v", got, wantClosed)
	}
	wantFrequent := []string{"apriori", "declat", "eclat", "fpgrowth", "pascal", "pdeclat", "peclat"}
	if got := FrequentMiners(); !reflect.DeepEqual(got, wantFrequent) {
		t.Errorf("FrequentMiners() = %v, want %v", got, wantFrequent)
	}
}

func TestRegistryLookup(t *testing.T) {
	// Canonical names, hyphenated and cased variants all resolve.
	for _, name := range []string{"close", "a-close", "aclose", "A-Close", "CHARM", "Titanic"} {
		if _, err := LookupClosedMiner(name); err != nil {
			t.Errorf("LookupClosedMiner(%q): %v", name, err)
		}
	}
	for _, name := range []string{"apriori", "eclat", "dEclat", "FPGrowth", "fp-growth", "pascal"} {
		if _, err := LookupFrequentMiner(name); err != nil {
			t.Errorf("LookupFrequentMiner(%q): %v", name, err)
		}
	}
}

func TestRegistryUnknownName(t *testing.T) {
	_, err := LookupClosedMiner("bogus")
	if err == nil {
		t.Fatal("unknown closed miner accepted")
	}
	if !strings.Contains(err.Error(), "close") || !strings.Contains(err.Error(), "titanic") {
		t.Errorf("error does not list registered miners: %v", err)
	}
	if _, err := LookupFrequentMiner("bogus"); err == nil {
		t.Fatal("unknown frequent miner accepted")
	}
	// The same error surfaces from the mining entry points.
	d := classic(t)
	if _, err := MineContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm("bogus")); err == nil {
		t.Error("MineContext with unknown algorithm accepted")
	}
	if _, err := MineFrequentContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm("bogus")); err == nil {
		t.Error("MineFrequentContext with unknown algorithm accepted")
	}
	// A closed miner is not a frequent miner and vice versa.
	if _, err := MineFrequentContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm("charm")); err == nil {
		t.Error("closed miner accepted as frequent miner")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	m, err := LookupClosedMiner("close")
	if err != nil {
		t.Fatal(err)
	}
	RegisterClosedMiner("close", m)
}

func TestMineContextAllClosedMinersAgree(t *testing.T) {
	d := classic(t)
	var reference []ClosedItemset
	for i, name := range ClosedMiners() {
		res, err := MineContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MinerName() != name {
			t.Errorf("MinerName() = %q, want %q", res.MinerName(), name)
		}
		all := res.ClosedItemsets()
		if i == 0 {
			reference = all
			continue
		}
		if len(all) != len(reference) {
			t.Fatalf("%s: |FC| = %d, want %d", name, len(all), len(reference))
		}
		for j := range all {
			if !all[j].Items.Equal(reference[j].Items) || all[j].Support != reference[j].Support {
				t.Errorf("%s: FC[%d] = %v/%d, want %v/%d", name,
					j, all[j].Items, all[j].Support, reference[j].Items, reference[j].Support)
			}
		}
	}
}

func TestMineFrequentContextAllMinersAgree(t *testing.T) {
	d := classic(t)
	var reference []CountedItemset
	for i, name := range FrequentMiners() {
		fi, err := MineFrequentContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i == 0 {
			reference = fi
			continue
		}
		if len(fi) != len(reference) {
			t.Fatalf("%s: |FI| = %d, want %d", name, len(fi), len(reference))
		}
		for j := range fi {
			if !fi[j].Items.Equal(reference[j].Items) || fi[j].Support != reference[j].Support {
				t.Errorf("%s: FI[%d] = %v, want %v", name, j, fi[j], reference[j])
			}
		}
	}
}

func TestTracksGenerators(t *testing.T) {
	d := classic(t)
	for name, want := range map[string]bool{
		"close": true, "a-close": true, "titanic": true, "genclose": true, "pgenclose": true,
		"charm": false,
	} {
		res, err := MineContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm(name))
		if err != nil {
			t.Fatal(err)
		}
		if res.TracksGenerators() != want {
			t.Errorf("%s: TracksGenerators() = %v, want %v", name, res.TracksGenerators(), want)
		}
		_, err = res.GenericBasis()
		if want && err != nil {
			t.Errorf("%s: GenericBasis: %v", name, err)
		}
		if !want && err == nil {
			t.Errorf("%s: GenericBasis accepted without generators", name)
		}
	}
}

func TestBasisRegistryHasAllBuiltins(t *testing.T) {
	// Subset rather than exact equality: other tests in this package
	// exercise RegisterBasis with extension bases, and the registry is
	// process-global.
	got := Bases()
	if !sort.StringsAreSorted(got) {
		t.Errorf("Bases() not sorted: %v", got)
	}
	for _, want := range []string{"duquenne-guigues", "generic", "informative", "luxenburger"} {
		found := false
		for _, n := range got {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Bases() = %v, missing %q", got, want)
		}
	}
}

func TestBasisRegistryLookup(t *testing.T) {
	// Canonical names, hyphenated and cased variants all resolve.
	for _, name := range []string{
		"duquenne-guigues", "duquenneguigues", "Duquenne-Guigues", "DUQUENNE_GUIGUES",
		"luxenburger", "Luxenburger", "generic", "informative",
	} {
		if _, err := LookupBasis(name); err != nil {
			t.Errorf("LookupBasis(%q): %v", name, err)
		}
	}
}

func TestBasisRegistryUnknownName(t *testing.T) {
	_, err := LookupBasis("bogus")
	if err == nil {
		t.Fatal("unknown basis accepted")
	}
	if !strings.Contains(err.Error(), "duquenne-guigues") || !strings.Contains(err.Error(), "luxenburger") {
		t.Errorf("error does not list registered bases: %v", err)
	}
	// The same error surfaces from the construction entry point.
	res, err := MineContext(context.Background(), classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Basis(context.Background(), "bogus"); err == nil {
		t.Error("Result.Basis with unknown basis accepted")
	}
}

func TestRegisterBasisDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate basis registration did not panic")
		}
	}()
	b, err := LookupBasis("luxenburger")
	if err != nil {
		t.Fatal(err)
	}
	RegisterBasis("luxenburger", b)
}

// customBasis is a registry-extension probe: a basis that serves only
// the top closed itemset's exact expansion, registered under a name no
// built-in uses.
type customBasis struct{}

func (customBasis) Name() string                    { return "test-custom" }
func (customBasis) Requirements() BasisRequirements { return BasisRequirements{} }
func (customBasis) Build(ctx context.Context, in BasisInput) (RuleSet, error) {
	return RuleSet{Rules: nil}, nil
}

// registerCustom registers customBasis once per test binary: -cpu=1,4
// and -count=N run a test more than once in one process, and
// registering a name twice panics by contract.
var registerCustom sync.Once

func TestRegisterBasisExtension(t *testing.T) {
	registerCustom.Do(func() { RegisterBasis("test-custom", customBasis{}) })
	found := false
	for _, n := range Bases() {
		if n == "test-custom" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Bases() = %v, missing test-custom", Bases())
	}
	res, err := MineContext(context.Background(), classic(t), WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := res.Basis(context.Background(), "Test-Custom")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Basis != "test-custom" {
		t.Errorf("provenance Basis = %q, want test-custom", rs.Basis)
	}
}

func TestMineOptionErrors(t *testing.T) {
	d := classic(t)
	ctx := context.Background()
	cases := []struct {
		name string
		opts []MineOption
	}{
		{"no threshold", nil},
		{"zero min support", []MineOption{WithMinSupport(0)}},
		{"min support above one", []MineOption{WithMinSupport(1.5)}},
		{"absolute below one", []MineOption{WithAbsoluteMinSupport(0)}},
		{"empty algorithm", []MineOption{WithMinSupport(0.4), WithAlgorithm("")}},
		{"nil option", []MineOption{nil}},
	}
	for _, tc := range cases {
		if _, err := MineContext(ctx, d, tc.opts...); err == nil {
			t.Errorf("MineContext %s: no error", tc.name)
		}
		if _, err := MineFrequentContext(ctx, d, tc.opts...); err == nil {
			t.Errorf("MineFrequentContext %s: no error", tc.name)
		}
	}
	// Absolute threshold takes precedence over relative.
	res, err := MineContext(ctx, d, WithMinSupport(0.99), WithAbsoluteMinSupport(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.MinSupport() != 2 {
		t.Errorf("MinSupport() = %d, want 2", res.MinSupport())
	}
}
