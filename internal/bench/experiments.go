package bench

import (
	"context"
	"fmt"
	"time"

	"closedrules/internal/aclose"
	"closedrules/internal/apriori"
	"closedrules/internal/charm"
	"closedrules/internal/closealg"
	"closedrules/internal/core"
	"closedrules/internal/gen"
	"closedrules/internal/itemset"
	"closedrules/internal/lattice"
	"closedrules/internal/rules"
	"closedrules/internal/titanic"
)

// E1 reproduces the |FI| vs |FC| comparison (ICDT'99 / IS'99): the
// precondition of the whole approach — on correlated data the closed
// sets are far fewer than the frequent sets.
func E1(w Workload) (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  fmt.Sprintf("frequent vs frequent closed itemsets — %s", w.Name),
		Header: []string{"minsup", "|FI|", "|FC|", "|FI|/|FC|"},
	}
	for _, ms := range w.MinSups {
		abs := w.D.AbsoluteSupport(ms)
		fam, _, err := apriori.Mine(w.D, abs)
		if err != nil {
			return t, err
		}
		fc, _, err := closealg.Mine(w.D, abs)
		if err != nil {
			return t, err
		}
		// FC includes the bottom element; FI excludes ∅ by convention.
		nFC := fc.Len() - 1
		t.Rows = append(t.Rows, []string{
			pct(ms), fmt.Sprint(fam.Len()), fmt.Sprint(nFC), ratio(nFC, fam.Len()),
		})
	}
	return t, nil
}

// E2 reproduces the exact-rules vs Duquenne–Guigues comparison
// (Theorem 1; SIGKDD Expl. Tab. "exact rules"): the DG basis is
// dramatically smaller than the set of exact rules on correlated data.
func E2(w Workload) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  fmt.Sprintf("exact rules vs Duquenne–Guigues basis — %s (minsup %s)", w.Name, pct(w.RuleMinSup)),
		Header: []string{"minsup", "exact rules", "|DG basis|", "reduction"},
	}
	abs := w.D.AbsoluteSupport(w.RuleMinSup)
	fam, _, err := apriori.Mine(w.D, abs)
	if err != nil {
		return t, err
	}
	fc, _, err := closealg.Mine(w.D, abs)
	if err != nil {
		return t, err
	}
	exact, _, err := rules.Count(fam, 0)
	if err != nil {
		return t, err
	}
	dg, err := core.DuquenneGuigues(context.TODO(), w.D.NumTransactions(), fc)
	if err != nil {
		return t, err
	}
	nDG := len(core.DropEmptyAntecedent(dg))
	t.Rows = append(t.Rows, []string{
		pct(w.RuleMinSup), fmt.Sprint(exact), fmt.Sprint(nDG), ratio(nDG, exact),
	})
	return t, nil
}

// E3 reproduces the approximate-rules vs Luxenburger bases comparison
// (Theorem 2): all valid approximate rules vs the full Luxenburger
// basis vs its transitive reduction, per confidence threshold.
func E3(w Workload) (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  fmt.Sprintf("approximate rules vs Luxenburger bases — %s (minsup %s)", w.Name, pct(w.RuleMinSup)),
		Header: []string{"minconf", "approx rules", "|Lux full|", "|Lux reduction|", "reduction"},
	}
	abs := w.D.AbsoluteSupport(w.RuleMinSup)
	fam, _, err := apriori.Mine(w.D, abs)
	if err != nil {
		return t, err
	}
	fc, _, err := closealg.Mine(w.D, abs)
	if err != nil {
		return t, err
	}
	lat := lattice.Build(fc)
	for _, mc := range w.MinConfs {
		_, approx, err := rules.Count(fam, mc)
		if err != nil {
			return t, err
		}
		full, err := core.LuxenburgerFull(fc, core.LuxenburgerOptions{MinConfidence: mc})
		if err != nil {
			return t, err
		}
		red, err := core.LuxenburgerReduction(lat, fc, core.LuxenburgerOptions{MinConfidence: mc})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			pct(mc), fmt.Sprint(approx), fmt.Sprint(len(full)), fmt.Sprint(len(red)),
			ratio(len(red), approx),
		})
	}
	return t, nil
}

// E4 reproduces the Apriori vs Close vs A-Close runtime comparison
// (IS'99 Figs. 9–11, ICDT'99): all three on the same counting
// substrate, with pass counts.
func E4(w Workload) (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  fmt.Sprintf("miner runtimes — %s", w.Name),
		Header: []string{"minsup", "apriori ms", "close ms", "a-close ms", "apriori passes", "close passes", "a-close passes"},
	}
	for _, ms_ := range w.MinSups {
		abs := w.D.AbsoluteSupport(ms_)
		var aStats apriori.Stats
		da, err := timed(func() error {
			_, s, err := apriori.Mine(w.D, abs)
			aStats = s
			return err
		})
		if err != nil {
			return t, err
		}
		var cStats closealg.Stats
		dc, err := timed(func() error {
			_, s, err := closealg.Mine(w.D, abs)
			cStats = s
			return err
		})
		if err != nil {
			return t, err
		}
		var acStats aclose.Stats
		dac, err := timed(func() error {
			_, s, err := aclose.Mine(w.D, abs)
			acStats = s
			return err
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			pct(ms_), ms(da), ms(dc), ms(dac),
			fmt.Sprint(aStats.Passes), fmt.Sprint(cStats.Passes), fmt.Sprint(acStats.Passes),
		})
	}
	return t, nil
}

// E5 reproduces the scale-up experiment (IS'99 Fig. 12): Close runtime
// as the number of transactions grows, at fixed relative support.
func E5(scale Scale) (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "scale-up: Close runtime vs number of transactions (T10I4, minsup 1%)",
		Header: []string{"transactions", "close ms", "|FC|"},
	}
	base := 2000
	steps := []int{1, 2, 4}
	if scale == Medium {
		base, steps = 5000, []int{1, 2, 4, 8}
	}
	if scale == Full {
		base, steps = 12500, []int{1, 2, 4, 8}
	}
	for _, k := range steps {
		n := base * k
		d, err := gen.Quest(gen.T10I4(n, 200, 7))
		if err != nil {
			return t, err
		}
		abs := d.AbsoluteSupport(0.01)
		var nFC int
		dur, err := timed(func() error {
			fc, _, err := closealg.Mine(d, abs)
			if err == nil {
				nFC = fc.Len()
			}
			return err
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), ms(dur), fmt.Sprint(nFC)})
	}
	return t, nil
}

// E6 reproduces the informative/min-max bases table (the follow-on of
// the same authors): generic basis vs exact rules and informative
// basis (full and reduced) vs approximate rules.
func E6(w Workload) (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  fmt.Sprintf("informative bases — %s (minsup %s)", w.Name, pct(w.RuleMinSup)),
		Header: []string{"minconf", "exact", "|GB|", "approx", "|IB|", "|IB reduced|"},
	}
	abs := w.D.AbsoluteSupport(w.RuleMinSup)
	fam, _, err := apriori.Mine(w.D, abs)
	if err != nil {
		return t, err
	}
	fc, _, err := closealg.Mine(w.D, abs)
	if err != nil {
		return t, err
	}
	lat := lattice.Build(fc)
	gb, err := core.GenericBasis(fc)
	if err != nil {
		return t, err
	}
	for _, mc := range w.MinConfs {
		exact, approx, err := rules.Count(fam, mc)
		if err != nil {
			return t, err
		}
		ib, err := core.InformativeBasis(lat, fc, false, core.LuxenburgerOptions{MinConfidence: mc})
		if err != nil {
			return t, err
		}
		ibr, err := core.InformativeBasis(lat, fc, true, core.LuxenburgerOptions{MinConfidence: mc})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			pct(mc), fmt.Sprint(exact), fmt.Sprint(len(gb)),
			fmt.Sprint(approx), fmt.Sprint(len(ib)), fmt.Sprint(len(ibr)),
		})
	}
	return t, nil
}

// E7 measures the cost of basis extraction on top of closed-itemset
// mining: the paper's pipeline must not be dominated by the basis step.
func E7(w Workload) (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  fmt.Sprintf("pipeline cost breakdown — %s (minsup %s)", w.Name, pct(w.RuleMinSup)),
		Header: []string{"stage", "ms", "output size"},
	}
	abs := w.D.AbsoluteSupport(w.RuleMinSup)

	var fam *itemset.Family
	dFam, err := timed(func() error {
		f, _, err := apriori.Mine(w.D, abs)
		fam = f
		return err
	})
	if err != nil {
		return t, err
	}
	fcRes, _, err := closealg.Mine(w.D, abs)
	if err != nil {
		return t, err
	}
	dClose, err := timed(func() error {
		_, _, err := closealg.Mine(w.D, abs)
		return err
	})
	if err != nil {
		return t, err
	}
	var lat *lattice.Lattice
	dLat, err := timed(func() error {
		lat = lattice.Build(fcRes)
		return nil
	})
	if err != nil {
		return t, err
	}
	var dg []rules.Rule
	dDG, err := timed(func() error {
		var err error
		dg, err = core.DuquenneGuigues(context.TODO(), w.D.NumTransactions(), fcRes)
		return err
	})
	if err != nil {
		return t, err
	}
	var red []rules.Rule
	dRed, err := timed(func() error {
		var err error
		red, err = core.LuxenburgerReduction(lat, fcRes, core.LuxenburgerOptions{})
		return err
	})
	if err != nil {
		return t, err
	}
	var nAll int
	dAll, err := timed(func() error {
		e, a, err := rules.Count(fam, 0.5)
		nAll = e + a
		return err
	})
	if err != nil {
		return t, err
	}

	t.Rows = [][]string{
		{"mine FC (Close)", ms(dClose), fmt.Sprintf("%d closed", fcRes.Len())},
		{"mine FI (Apriori)", ms(dFam), fmt.Sprintf("%d frequent", fam.Len())},
		{"build lattice", ms(dLat), fmt.Sprintf("%d edges", lat.NumEdges())},
		{"DG basis", ms(dDG), fmt.Sprintf("%d rules", len(dg))},
		{"Lux reduction", ms(dRed), fmt.Sprintf("%d rules", len(red))},
		{"all rules @50% (count)", ms(dAll), fmt.Sprintf("%d rules", nAll)},
	}
	return t, nil
}

// E8 is the ablation over closed-itemset miners: the bases are
// miner-independent, so the cheapest correct FC producer wins.
func E8(w Workload) (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  fmt.Sprintf("closed-miner ablation — %s", w.Name),
		Header: []string{"minsup", "close ms", "a-close ms", "titanic ms", "charm ms", "|FC| (agree)"},
	}
	// TITANIC's support-only closures blow up on weakly correlated
	// data (faithful to the literature: it targets dense contexts).
	// Rows where even the level-wise A-Close takes long would take
	// TITANIC orders of magnitude longer; skip those.
	const titanicGate = 300 * time.Millisecond
	for _, ms_ := range w.MinSups {
		abs := w.D.AbsoluteSupport(ms_)
		var n1, n2, n3, n4 int
		d1, err := timed(func() error {
			fc, _, err := closealg.Mine(w.D, abs)
			if err == nil {
				n1 = fc.Len()
			}
			return err
		})
		if err != nil {
			return t, err
		}
		d2, err := timed(func() error {
			fc, _, err := aclose.Mine(w.D, abs)
			if err == nil {
				n2 = fc.Len()
			}
			return err
		})
		if err != nil {
			return t, err
		}
		titanicCell := "(skipped)"
		n4 = n1
		if d2 <= titanicGate {
			d4, err := timed(func() error {
				fc, _, err := titanic.Mine(w.D, abs)
				if err == nil {
					n4 = fc.Len()
				}
				return err
			})
			if err != nil {
				return t, err
			}
			titanicCell = ms(d4)
		}
		d3, err := timed(func() error {
			fc, err := charm.Mine(w.D, abs)
			if err == nil {
				n3 = fc.Len()
			}
			return err
		})
		if err != nil {
			return t, err
		}
		agree := "yes"
		if n1 != n2 || n2 != n3 || n3 != n4 {
			agree = fmt.Sprintf("NO (%d/%d/%d/%d)", n1, n2, n3, n4)
		}
		t.Rows = append(t.Rows, []string{
			pct(ms_), ms(d1), ms(d2), titanicCell, ms(d3), fmt.Sprintf("%d (%s)", n1, agree),
		})
	}
	t.Notes = "titanic is skipped on rows where a-close needs >300ms: its support-only closures target dense data"
	return t, nil
}

// All runs every experiment at the given scale.
func All(scale Scale) ([]Table, error) {
	ws, err := Workloads(scale)
	if err != nil {
		return nil, err
	}
	var tables []Table
	run := func(t Table, err error) error {
		if err != nil {
			return err
		}
		tables = append(tables, t)
		return nil
	}
	for _, w := range ws {
		if err := run(E1(w)); err != nil {
			return nil, err
		}
	}
	for _, w := range ws {
		if err := run(E2(w)); err != nil {
			return nil, err
		}
	}
	for _, w := range ws {
		if err := run(E3(w)); err != nil {
			return nil, err
		}
	}
	for _, w := range ws {
		if err := run(E4(w)); err != nil {
			return nil, err
		}
	}
	if err := run(E5(scale)); err != nil {
		return nil, err
	}
	for _, w := range ws {
		if err := run(E6(w)); err != nil {
			return nil, err
		}
	}
	for _, w := range ws {
		if err := run(E7(w)); err != nil {
			return nil, err
		}
	}
	for _, w := range ws {
		if err := run(E8(w)); err != nil {
			return nil, err
		}
	}
	return tables, nil
}
