package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"closedrules/internal/charm"
	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	"closedrules/internal/gen"
	"closedrules/internal/lattice"
	"closedrules/internal/naive"
	"closedrules/internal/rules"
	"closedrules/internal/testgen"
)

// refPairRule is the closed-pair rule as the bases built it before
// pairRules: a Diff per consequent and a key lookup for its support.
func refPairRule(lo, hi closedset.Closed, fc *closedset.Set) rules.Rule {
	cons := hi.Items.Diff(lo.Items)
	consSup := 0
	if s, ok := fc.SupportOf(cons); ok {
		consSup = s
	}
	return rules.Rule{
		Antecedent:        lo.Items,
		Consequent:        cons,
		Support:           hi.Support,
		AntecedentSupport: lo.Support,
		ConsequentSupport: consSup,
	}
}

// refReduction is the reduced Luxenburger basis built edge by edge and
// sorted afterwards — the reference LuxenburgerReduction must match.
func refReduction(lat *lattice.Lattice, fc *closedset.Set, opt LuxenburgerOptions) []rules.Rule {
	var out []rules.Rule
	for _, e := range lat.Edges() {
		lo, hi := lat.Nodes[e[0]], lat.Nodes[e[1]]
		if lo.Items.Len() == 0 && !opt.IncludeEmptyAntecedent {
			continue
		}
		if r := refPairRule(lo, hi, fc); r.Confidence() >= opt.MinConfidence {
			out = append(out, r)
		}
	}
	rules.Sort(out)
	return out
}

// refFull is LuxenburgerFull's reference: every comparable pair.
func refFull(fc *closedset.Set, opt LuxenburgerOptions) []rules.Rule {
	all := fc.All()
	var out []rules.Rule
	for i, lo := range all {
		if lo.Items.Len() == 0 && !opt.IncludeEmptyAntecedent {
			continue
		}
		for j, hi := range all {
			if i == j || !hi.Items.ContainsAll(lo.Items) || len(hi.Items) == len(lo.Items) {
				continue
			}
			if r := refPairRule(lo, hi, fc); r.Confidence() >= opt.MinConfidence {
				out = append(out, r)
			}
		}
	}
	rules.Sort(out)
	return out
}

// TestLuxenburgerReductionMatchesReference compares the one-pass
// reduction field for field with the sorted edge-by-edge reference on
// the classic context, random and correlated data and small dense and
// sparse generator shapes, at three thresholds with and without the
// empty antecedent. The output must come out sorted, and appending to
// one consequent must not reach the next rule's consequent in the
// shared array.
func TestLuxenburgerReductionMatchesReference(t *testing.T) {
	type shape struct {
		name string
		fc   *closedset.Set
		full bool // small enough for the quadratic full basis
	}
	_, _, classicFC := classic(t)
	shapes := []shape{{"classic", classicFC, true}}
	r := rand.New(rand.NewSource(149))
	for i := 0; i < 4; i++ {
		d := testgen.Random(r, 20, 9, 0.45)
		shapes = append(shapes, shape{fmt.Sprintf("random%d", i), naive.ClosedItemsets(d.Context(), 1+i%3), true})
	}
	for _, seed := range []int64{157, 173} {
		d := testgen.Correlated(rand.New(rand.NewSource(seed)), 120, 6, 3, 0.15)
		shapes = append(shapes, shape{fmt.Sprintf("correlated%d", seed), naive.ClosedItemsets(d.Context(), 3), true})
	}
	mine := func(d *dataset.Dataset, err error, minSup float64) *closedset.Set {
		if err != nil {
			t.Fatal(err)
		}
		fc, err := charm.Mine(d, d.AbsoluteSupport(minSup))
		if err != nil {
			t.Fatal(err)
		}
		return fc
	}
	d, err := gen.Mushroom(gen.MushroomConfig{NumObjects: 400, Seed: 1})
	shapes = append(shapes, shape{"mushroom", mine(d, err, 0.2), false})
	d, err = gen.Quest(gen.T10I4(1000, 100, 1))
	shapes = append(shapes, shape{"t10i4", mine(d, err, 0.01), false})

	for _, s := range shapes {
		lat := lattice.Build(s.fc)
		for _, minConf := range []float64{0, 0.5, 1} {
			for _, empty := range []bool{false, true} {
				opt := LuxenburgerOptions{MinConfidence: minConf, IncludeEmptyAntecedent: empty}
				name := fmt.Sprintf("%s/conf%v/empty=%v", s.name, minConf, empty)
				got, err := LuxenburgerReduction(lat, s.fc, opt)
				if err != nil {
					t.Fatal(err)
				}
				if want := refReduction(lat, s.fc, opt); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: reduction differs from reference\ngot  %v\nwant %v", name, got, want)
				}
				if minConf == 0 && len(got) == 0 && s.fc.Len() > 1 {
					t.Fatalf("%s: no rules over %d closed sets", name, s.fc.Len())
				}
				checkSortedAndCapped(t, name, got)
				if !s.full {
					continue
				}
				full, err := LuxenburgerFull(s.fc, opt)
				if err != nil {
					t.Fatal(err)
				}
				if want := refFull(s.fc, opt); !reflect.DeepEqual(full, want) {
					t.Fatalf("%s: full basis differs from reference\ngot  %v\nwant %v", name, full, want)
				}
				checkSortedAndCapped(t, name+"/full", full)
			}
		}
	}
}

func checkSortedAndCapped(t *testing.T, name string, list []rules.Rule) {
	t.Helper()
	for k := 1; k < len(list); k++ {
		if list[k-1].Compare(list[k]) >= 0 {
			t.Fatalf("%s: rules %d and %d out of canonical order: %v, %v", name, k-1, k, list[k-1], list[k])
		}
	}
	for k := 0; k+1 < len(list); k++ {
		next := slices.Clone(list[k+1].Consequent)
		_ = append(list[k].Consequent, -1)
		if !slices.Equal(list[k+1].Consequent, next) {
			t.Fatalf("%s: appending to rule %d's consequent changed rule %d's to %v", name, k, k+1, list[k+1].Consequent)
		}
	}
}
