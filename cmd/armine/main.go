// Command armine mines frequent closed itemsets, association rules and
// rule bases from transaction data.
//
// Usage:
//
//	armine -in data.dat -minsup 0.3 -mode bases [-minconf 0.5] [-algo close] [-timeout 30s]
//	armine -in data.dat -minsup 0.3 -basis luxenburger [-minconf 0.5] [-full]
//	armine -in table.csv -table -sep , -header -minsup 0.5 -mode closed
//	armine -algo list
//	armine -basis list
//
// Modes:
//
//	stats     dataset summary
//	frequent  all frequent itemsets (-algo apriori | eclat | declat | fpgrowth | pascal)
//	closed    frequent closed itemsets with minimal generators
//	pseudo    frequent pseudo-closed itemsets
//	rules     all valid association rules at -minconf
//	bases     Duquenne–Guigues + reduced Luxenburger bases (the paper)
//	generic   generic + informative bases (minimal generators)
//	lattice   iceberg lattice in Graphviz DOT
//
// Algorithms are resolved through the miner registry: `-algo list`
// prints every registered name. Closed modes default to "charm",
// frequent mode to "apriori"; output that needs minimal generators
// (the closed and generic modes, or a -basis that requires them)
// defaults to "genclose", which mines the closed sets and their
// generators in one vertical traversal. Those outputs accept any
// generator-tracking miner: genclose/pgenclose or the level-wise
// close, a-close and titanic. Rule bases are resolved through the
// basis registry: `-basis list` prints every registered basis, and
// `-basis NAME` mines and prints that single basis at -minconf
// (overriding -mode; -full selects the unreduced variant where one
// exists). A -timeout aborts a runaway mine mid-run via context
// cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"closedrules"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "armine:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("armine", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "input file (.dat basket format unless -table)")
		table   = fs.Bool("table", false, "input is a nominal table (one attribute per column)")
		sep     = fs.String("sep", ",", "table column separator")
		header  = fs.Bool("header", false, "table has a header row")
		minsup  = fs.Float64("minsup", 0.5, "relative minimum support (0,1]")
		abssup  = fs.Int("abssup", 0, "absolute minimum support (overrides -minsup when ≥1)")
		minconf = fs.Float64("minconf", 0.5, "minimum confidence [0,1]")
		algo    = fs.String("algo", "", "miner registry name (\"list\" to print all; default charm, genclose when the output needs generators, apriori in frequent mode)")
		basis   = fs.String("basis", "", "basis registry name (\"list\" to print all); overrides -mode with a single-basis run")
		full    = fs.Bool("full", false, "with -basis: build the unreduced variant where one exists")
		mode    = fs.String("mode", "bases", "stats | frequent | closed | pseudo | rules | bases | generic | lattice")
		format  = fs.String("format", "text", "rule output format: text | json | csv")
		timeout = fs.Duration("timeout", 0, "abort mining after this duration (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *algo == "list" {
		fmt.Fprintf(w, "closed miners:   %s\n", strings.Join(closedrules.ClosedMiners(), " "))
		fmt.Fprintf(w, "frequent miners: %s\n", strings.Join(closedrules.FrequentMiners(), " "))
		return nil
	}
	if *basis == "list" {
		fmt.Fprintf(w, "bases: %s\n", strings.Join(closedrules.Bases(), " "))
		return nil
	}
	if *basis != "" {
		// Fail on unknown names before the mining work, not after.
		if _, err := closedrules.LookupBasis(*basis); err != nil {
			return err
		}
	}
	if *in == "" {
		return fmt.Errorf("missing -in")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var (
		d   *closedrules.Dataset
		err error
	)
	if *table {
		r := []rune(*sep)
		if len(r) != 1 {
			return fmt.Errorf("-sep must be a single character")
		}
		d, err = closedrules.ReadTableFile(*in, r[0], *header)
	} else {
		d, err = closedrules.ReadDatFile(*in)
	}
	if err != nil {
		return err
	}

	opts := []closedrules.MineOption{closedrules.WithMinSupport(*minsup)}
	if *abssup >= 1 {
		opts = []closedrules.MineOption{closedrules.WithAbsoluteMinSupport(*abssup)}
	}
	// Algorithm defaulting (charm / apriori) is the library's job, except
	// that output needing minimal generators mines them in the same pass.
	if *algo == "" {
		// The closed and generic modes print minimal generators, as a
		// generic basis needs them.
		sel := closedrules.BasisSelection{Exact: *basis}
		if *basis == "" && (*mode == "closed" || *mode == "generic") {
			sel.Exact = "generic"
		}
		*algo = sel.Miner()
	}
	if *algo != "" {
		opts = append(opts, closedrules.WithAlgorithm(*algo))
	}

	if *basis == "" && *mode == "stats" {
		s := d.Stats()
		fmt.Fprintf(w, "transactions: %d\nitems: %d\navg length: %.2f\nmin/max length: %d/%d\ndensity: %.4f\n",
			s.NumTransactions, s.NumItems, s.AvgLen, s.MinLen, s.MaxLen, s.Density)
		return nil
	}
	if *basis == "" && *mode == "frequent" {
		fi, err := closedrules.MineFrequentContext(ctx, d, opts...)
		if err != nil {
			return err
		}
		for _, f := range fi {
			fmt.Fprintf(w, "%s\t%d\n", f.Items.Format(d.Names()), f.Support)
		}
		fmt.Fprintf(w, "# %d frequent itemsets\n", len(fi))
		return nil
	}

	res, err := closedrules.MineContext(ctx, d, opts...)
	if err != nil {
		return err
	}
	names := d.Names()

	if *basis != "" {
		bopts := []closedrules.BasisOption{closedrules.WithMinConfidence(*minconf)}
		if *full {
			bopts = append(bopts, closedrules.WithReduction(false))
		}
		rs, err := res.Basis(ctx, *basis, bopts...)
		if err != nil {
			return err
		}
		if done, err := writeRules(w, rs.Rules, *format); done || err != nil {
			return err
		}
		variant := "reduced"
		if !rs.Reduced {
			variant = "full"
		}
		fmt.Fprintf(w, "## %s basis (%s, conf ≥ %.2f): %d\n", rs.Basis, variant, rs.MinConfidence, rs.Len())
		for _, r := range rs.Rules {
			fmt.Fprintln(w, r.Format(names))
		}
		return nil
	}

	switch *mode {
	case "closed":
		for _, c := range res.ClosedItemsets() {
			fmt.Fprintf(w, "%s\t%d", c.Items.Format(names), c.Support)
			for _, g := range c.Generators {
				fmt.Fprintf(w, "\tgen:%s", g.Format(names))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "# %d frequent closed itemsets\n", res.NumClosed())
	case "pseudo":
		ps, err := res.PseudoClosedItemsets()
		if err != nil {
			return err
		}
		for _, p := range ps {
			fmt.Fprintf(w, "%s\t%d\n", p.Items.Format(names), p.Support)
		}
		fmt.Fprintf(w, "# %d frequent pseudo-closed itemsets\n", len(ps))
	case "rules":
		all, err := res.AllRules(*minconf)
		if err != nil {
			return err
		}
		if done, err := writeRules(w, all, *format); done || err != nil {
			return err
		}
		for _, r := range all {
			fmt.Fprintln(w, r.Format(names))
		}
		fmt.Fprintf(w, "# %d rules\n", len(all))
	case "bases":
		bases, err := res.Bases(*minconf)
		if err != nil {
			return err
		}
		if *format != "text" {
			all := append(append([]closedrules.Rule{}, bases.Exact...), bases.Approximate...)
			_, err := writeRules(w, all, *format)
			return err
		}
		fmt.Fprintf(w, "## Duquenne–Guigues basis (exact rules): %d\n", len(bases.Exact))
		for _, r := range bases.Exact {
			fmt.Fprintln(w, r.Format(names))
		}
		fmt.Fprintf(w, "## Luxenburger reduction (approximate rules, conf ≥ %.2f): %d\n",
			*minconf, len(bases.Approximate))
		for _, r := range bases.Approximate {
			fmt.Fprintln(w, r.Format(names))
		}
	case "generic":
		gb, err := res.GenericBasis()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Generic basis (exact rules): %d\n", len(gb))
		for _, r := range gb {
			fmt.Fprintln(w, r.Format(names))
		}
		ib, err := res.InformativeBasis(*minconf, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Reduced informative basis (conf ≥ %.2f): %d\n", *minconf, len(ib))
		for _, r := range ib {
			fmt.Fprintln(w, r.Format(names))
		}
	case "lattice":
		fmt.Fprint(w, res.LatticeDOT())
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	return nil
}

// writeRules handles the non-text formats; done reports whether the
// rules were written (text falls through to the caller's renderer).
func writeRules(w io.Writer, list []closedrules.Rule, format string) (done bool, err error) {
	switch format {
	case "text":
		return false, nil
	case "json":
		return true, closedrules.WriteRulesJSON(w, list)
	case "csv":
		return true, closedrules.WriteRulesCSV(w, list)
	}
	return true, fmt.Errorf("unknown -format %q", format)
}
