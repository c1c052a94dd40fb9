package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeClassic writes the classic 5-object context to a temp .dat file.
func writeClassic(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "classic.dat")
	data := "0 2 3\n1 2 4\n0 1 2 4\n1 4\n0 1 2 4\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestStatsMode(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-mode", "stats")
	if !strings.Contains(out, "transactions: 5") || !strings.Contains(out, "items: 5") {
		t.Errorf("stats output:\n%s", out)
	}
}

func TestFrequentMode(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-mode", "frequent")
	if !strings.Contains(out, "# 15 frequent itemsets") {
		t.Errorf("frequent output:\n%s", out)
	}
}

func TestClosedModeAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"close", "aclose", "charm", "titanic", "genclose"} {
		out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-mode", "closed", "-algo", algo)
		if !strings.Contains(out, "# 6 frequent closed itemsets") {
			t.Errorf("algo %s output:\n%s", algo, out)
		}
	}
}

func TestAlgoList(t *testing.T) {
	out := runCLI(t, "-algo", "list")
	for _, name := range []string{"close", "aclose", "charm", "titanic", "genclose", "apriori", "eclat", "declat", "fpgrowth", "pascal"} {
		if !strings.Contains(out, name) {
			t.Errorf("-algo list missing %q:\n%s", name, out)
		}
	}
	for _, name := range []string{"pcharm", "pgenclose", "peclat", "pdeclat"} {
		if strings.Contains(out, name) {
			t.Errorf("-algo list still names retired %q:\n%s", name, out)
		}
	}
}

func TestBasisList(t *testing.T) {
	out := runCLI(t, "-basis", "list")
	for _, name := range []string{"duquenne-guigues", "generic", "informative", "luxenburger"} {
		if !strings.Contains(out, name) {
			t.Errorf("-basis list missing %q:\n%s", name, out)
		}
	}
}

func TestBasisFlagAllBuiltins(t *testing.T) {
	// Every registered basis is reachable by name from the CLI, with
	// the counts of the classic example at conf ≥ 0.5.
	for name, want := range map[string]string{
		"duquenne-guigues": "## duquenne-guigues basis (reduced, conf ≥ 0.50): 3",
		"generic":          "## generic basis (reduced, conf ≥ 0.50): 7",
		"luxenburger":      "## luxenburger basis (reduced, conf ≥ 0.50): 5",
		"informative":      "## informative basis (reduced, conf ≥ 0.50): 7",
	} {
		out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-minconf", "0.5", "-basis", name)
		if !strings.Contains(out, want) {
			t.Errorf("-basis %s output:\n%s", name, out)
		}
	}
}

func TestBasisFlagFullVariant(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-minconf", "0", "-basis", "luxenburger", "-full")
	if !strings.Contains(out, "## luxenburger basis (full, conf ≥ 0.00): 7") {
		t.Errorf("-basis luxenburger -full output:\n%s", out)
	}
}

func TestBasisFlagJSONFormat(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-basis", "duquenne-guigues", "-format", "json")
	if !strings.HasPrefix(strings.TrimSpace(out), "[") || !strings.Contains(out, "\"antecedent\"") {
		t.Errorf("json basis output:\n%.200s", out)
	}
}

func TestBasisFlagUnknownName(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-in", writeClassic(t), "-minsup", "0.4", "-basis", "bogus"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "unknown basis") {
		t.Errorf("unknown basis err = %v", err)
	}
}

func TestFrequentModeAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"apriori", "eclat", "declat", "fpgrowth", "pascal"} {
		out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-mode", "frequent", "-algo", algo)
		if !strings.Contains(out, "# 15 frequent itemsets") {
			t.Errorf("algo %s output:\n%s", algo, out)
		}
	}
}

func TestTimeoutFlag(t *testing.T) {
	// A generous timeout must not disturb a normal run.
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-mode", "closed", "-timeout", "1m")
	if !strings.Contains(out, "# 6 frequent closed itemsets") {
		t.Errorf("timeout run output:\n%s", out)
	}
	// An already-expired timeout aborts with the context's error.
	var sb strings.Builder
	err := run([]string{"-in", writeClassic(t), "-minsup", "0.4", "-mode", "closed", "-timeout", "1ns"}, &sb)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired timeout: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestPseudoMode(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-mode", "pseudo")
	if !strings.Contains(out, "# 3 frequent pseudo-closed itemsets") {
		t.Errorf("pseudo output:\n%s", out)
	}
}

func TestRulesMode(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-minconf", "0", "-mode", "rules")
	if !strings.Contains(out, "# 50 rules") {
		t.Errorf("rules output:\n%s", out)
	}
}

func TestBasesMode(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-minconf", "0.5", "-mode", "bases")
	if !strings.Contains(out, "Duquenne–Guigues basis (exact rules): 3") {
		t.Errorf("bases output:\n%s", out)
	}
	if !strings.Contains(out, "Luxenburger reduction (approximate rules, conf ≥ 0.50): 5") {
		t.Errorf("bases output:\n%s", out)
	}
}

func TestGenericMode(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-mode", "generic")
	if !strings.Contains(out, "Generic basis (exact rules): 7") {
		t.Errorf("generic output:\n%s", out)
	}
}

func TestLatticeMode(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-mode", "lattice")
	if !strings.HasPrefix(out, "digraph lattice {") {
		t.Errorf("lattice output:\n%s", out)
	}
}

func TestTableInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	data := "color,size\nred,big\nred,big\nblue,small\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "-in", path, "-table", "-header", "-minsup", "0.5", "-mode", "closed")
	if !strings.Contains(out, "color=red") {
		t.Errorf("table output:\n%s", out)
	}
}

func TestRulesJSONFormat(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-minconf", "0", "-mode", "rules", "-format", "json")
	if !strings.HasPrefix(strings.TrimSpace(out), "[") {
		t.Errorf("json output:\n%.80s", out)
	}
	if !strings.Contains(out, "\"antecedent\"") {
		t.Errorf("json output lacks fields:\n%.200s", out)
	}
}

func TestBasesCSVFormat(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-minconf", "0.5", "-mode", "bases", "-format", "csv")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "antecedent,consequent,support,antecedentSupport,consequentSupport,confidence" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != 9 { // header + 3 exact + 5 approximate
		t.Errorf("csv has %d lines:\n%s", len(lines), out)
	}
}

func TestBadFormat(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-in", writeClassic(t), "-minsup", "0.4", "-mode", "rules", "-format", "xml"}, &sb)
	if err == nil {
		t.Error("bad format accepted")
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	cases := [][]string{
		{},                               // missing -in
		{"-in", "/nonexistent/file.dat"}, // missing file
		{"-in", writeClassic(t), "-algo", "bogus"},
		{"-in", writeClassic(t), "-mode", "closed", "-algo", "pcharm"}, // retired twin
		{"-in", writeClassic(t), "-mode", "bogus"},
		{"-in", writeClassic(t), "-table", "-sep", "ab"},
		{"-in", writeClassic(t), "-minsup", "7"},
	}
	for i, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
}

// TestClosedModeDefaultPrintsGenerators: with no -algo the closed mode
// mines with genclose, so every closed itemset keeps its generators.
func TestClosedModeDefaultPrintsGenerators(t *testing.T) {
	out := runCLI(t, "-in", writeClassic(t), "-minsup", "0.4", "-mode", "closed")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, l := range lines[:len(lines)-1] {
		if !strings.Contains(l, "gen:") {
			t.Errorf("closed itemset without generators: %q\n%s", l, out)
		}
	}
	if !strings.Contains(out, "# 6 frequent closed itemsets") {
		t.Errorf("closed mode output:\n%s", out)
	}
}
