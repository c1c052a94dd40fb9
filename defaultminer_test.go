package closedrules

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"closedrules/internal/testgen"
)

// TestDefaultMinerIsCharm pins the default: with no WithAlgorithm,
// MineContext mines with charm, and its FC equals close's.
func TestDefaultMinerIsCharm(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(1609))
	datasets := []*Dataset{classic(t)}
	for i := 0; i < 10; i++ {
		datasets = append(datasets, testgen.Random(r, 30, 10, 0.45))
	}
	for i, d := range datasets {
		def, err := MineContext(ctx, d, WithAbsoluteMinSupport(2))
		if err != nil {
			t.Fatal(err)
		}
		if def.MinerName() != "charm" {
			t.Fatalf("default MinerName() = %q, want charm", def.MinerName())
		}
		ref, err := MineContext(ctx, d, WithAbsoluteMinSupport(2), WithAlgorithm("close"))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fcLines(def), fcLines(ref); got != want {
			t.Fatalf("dataset %d: default FC\n%s\nclose FC\n%s", i, got, want)
		}
	}
}

func fcLines(res *Result) string {
	var b strings.Builder
	for _, c := range res.ClosedItemsets() {
		fmt.Fprintf(&b, "%v %d\n", c.Items, c.Support)
	}
	return b.String()
}

// TestDefaultResultResolvesGenerators: a defaulted result asked for a
// generator basis resolves the generators by itself — one memoized
// genclose re-mine shared by every generator basis — and matches the
// golden files. An explicitly named charm keeps refusing
// (TestBasisGeneratorRequirement).
func TestDefaultResultResolvesGenerators(t *testing.T) {
	d := namedClassic(t)
	res, err := MineContext(context.Background(), d, WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if res.HasGenerators() {
		t.Fatal("defaulted charm result claims generators")
	}
	ctx := context.Background()
	var resolved []any
	for _, tc := range goldenBasisCases {
		if tc.name != "generic" && tc.name != "informative" {
			continue
		}
		rs, err := res.Basis(ctx, tc.name, tc.opts...)
		if err != nil {
			t.Fatalf("%s on a defaulted result: %v", tc.file, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "basis", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatRules(rs.Rules, d); got != string(want) {
			t.Errorf("%s: defaulted basis diverged from golden file:\ngot:\n%swant:\n%s", tc.file, got, want)
		}
		res.genMu.Lock()
		resolved = append(resolved, res.genFC)
		res.genMu.Unlock()
	}
	for i, fc := range resolved {
		if fc == nil || fc != resolved[0] {
			t.Fatalf("build %d: generator resolution not mined once and shared (%p vs %p)", i, fc, resolved[0])
		}
	}
}

// TestBasisSelectionMiner pins the one-pass policy: genclose exactly
// when a selected basis needs generators, the default otherwise.
func TestBasisSelectionMiner(t *testing.T) {
	for _, tc := range []struct {
		sel   BasisSelection
		needs bool
	}{
		{BasisSelection{}, false},
		{BasisSelection{Exact: "duquenne-guigues", Approximate: "luxenburger"}, false},
		{BasisSelection{Exact: "generic"}, true},
		{BasisSelection{Approximate: "informative"}, true},
		{BasisSelection{Exact: "bogus"}, true},
	} {
		want := ""
		if tc.needs {
			want = "genclose"
		}
		if got := tc.sel.NeedsGenerators(); got != tc.needs {
			t.Errorf("%+v.NeedsGenerators() = %v, want %v", tc.sel, got, tc.needs)
		}
		if got := tc.sel.Miner(); got != want {
			t.Errorf("%+v.Miner() = %q, want %q", tc.sel, got, want)
		}
	}
}
