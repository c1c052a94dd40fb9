package closedrules

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"closedrules/internal/testgen"
)

// randomTx draws raw transactions for append-schedule tests.
func randomTx(r *rand.Rand, n, items int, density float64) [][]int {
	raw := make([][]int, n)
	for i := range raw {
		for x := 0; x < items; x++ {
			if r.Float64() < density {
				raw[i] = append(raw[i], x)
			}
		}
	}
	return raw
}

// TestUpdateAppendMatchesFullMine replays 10 random append schedules
// and checks, at every step, that the incremental Result is
// byte-identical to a full re-mine of the concatenated dataset: same
// closed itemsets and supports, and the same rendered Duquenne–Guigues
// and Luxenburger bases.
func TestUpdateAppendMatchesFullMine(t *testing.T) {
	ctx := context.Background()
	for seed := 0; seed < 10; seed++ {
		r := rand.New(rand.NewSource(int64(seed)*6151 + 17))
		raw := randomTx(r, 20+r.Intn(30), 8, 0.4)
		rel := 0.15 + 0.2*r.Float64()
		opts := []MineOption{WithMinSupport(rel)}

		cut := 6 + r.Intn(len(raw)/2)
		base, err := NewDataset(raw[:cut])
		if err != nil {
			t.Fatal(err)
		}
		res, err := MineContext(ctx, base, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for cut < len(raw) {
			hi := cut + 1 + r.Intn(6)
			if hi > len(raw) {
				hi = len(raw)
			}
			appended, err := NewDataset(raw[cut:hi])
			if err != nil {
				t.Fatal(err)
			}
			inc, err := UpdateAppend(ctx, res, appended, opts...)
			if err != nil {
				t.Fatalf("seed %d: UpdateAppend(%d->%d): %v", seed, cut, hi, err)
			}
			fullD, err := NewDataset(raw[:hi])
			if err != nil {
				t.Fatal(err)
			}
			full, err := MineContext(ctx, fullD, opts...)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEquivalent(t, inc, full)
			res, cut = inc, hi
		}
	}
}

// assertResultsEquivalent compares closed sets, supports and the
// generator-free bases of an incremental result against a full mine.
func assertResultsEquivalent(t *testing.T, inc, full *Result) {
	t.Helper()
	if inc.NumClosed() != full.NumClosed() {
		t.Fatalf("|FC| %d != %d", inc.NumClosed(), full.NumClosed())
	}
	gotFC, wantFC := inc.ClosedItemsets(), full.ClosedItemsets()
	for i := range wantFC {
		if !gotFC[i].Items.Equal(wantFC[i].Items) || gotFC[i].Support != wantFC[i].Support {
			t.Fatalf("FC[%d]: got %v/%d, want %v/%d",
				i, gotFC[i].Items, gotFC[i].Support, wantFC[i].Items, wantFC[i].Support)
		}
	}
	ctx := context.Background()
	for _, name := range []string{"duquenne-guigues", "luxenburger"} {
		got, err := inc.Basis(ctx, name, WithMinConfidence(0.5))
		if err != nil {
			t.Fatalf("incremental %s basis: %v", name, err)
		}
		want, err := full.Basis(ctx, name, WithMinConfidence(0.5))
		if err != nil {
			t.Fatalf("full %s basis: %v", name, err)
		}
		g := FormatRules(got.Rules, inc.Dataset())
		w := FormatRules(want.Rules, full.Dataset())
		if g != w {
			t.Fatalf("%s basis differs\n got:\n%s\nwant:\n%s", name, g, w)
		}
	}
}

// TestUpdateAppendCorrelated repeats the equivalence check in the
// correlated (mushroom-like) regime.
func TestUpdateAppendCorrelated(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(42))
	d := testgen.Correlated(r, 50, 4, 3, 0.25)
	raw := make([][]int, d.NumTransactions())
	for i := range raw {
		raw[i] = d.Transaction(i)
	}
	opts := []MineOption{WithMinSupport(0.2)}
	base, err := NewDataset(raw[:30])
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineContext(ctx, base, opts...)
	if err != nil {
		t.Fatal(err)
	}
	appended, err := NewDataset(raw[30:])
	if err != nil {
		t.Fatal(err)
	}
	inc, err := UpdateAppend(ctx, res, appended, opts...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MineContext(ctx, d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEquivalent(t, inc, full)
	if inc.MinerName() != "incremental" {
		t.Errorf("MinerName = %q, want incremental", inc.MinerName())
	}
	if inc.HasGenerators() {
		t.Error("incremental result claims generators")
	}
}

// TestUpdateAppendRefusals covers the ErrIncremental cases.
func TestUpdateAppendRefusals(t *testing.T) {
	ctx := context.Background()
	base, err := NewDataset([][]int{{0, 1}, {0}, {1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineContext(ctx, base, WithAbsoluteMinSupport(2))
	if err != nil {
		t.Fatal(err)
	}
	delta, err := NewDataset([][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		prev  *Result
		delta *Dataset
		opts  []MineOption
	}{
		{"nil prev", nil, delta, []MineOption{WithAbsoluteMinSupport(2)}},
		{"nil delta", res, nil, []MineOption{WithAbsoluteMinSupport(2)}},
		{"empty delta", res, empty, []MineOption{WithAbsoluteMinSupport(2)}},
		{"lowered threshold", res, delta, []MineOption{WithAbsoluteMinSupport(1)}},
	}
	for _, tc := range cases {
		_, err := UpdateAppend(ctx, tc.prev, tc.delta, tc.opts...)
		if !errors.Is(err, ErrIncremental) {
			t.Errorf("%s: err = %v, want ErrIncremental", tc.name, err)
		}
	}
	// Missing threshold is an option error, not an ErrIncremental.
	if _, err := UpdateAppend(ctx, res, delta); err == nil {
		t.Error("UpdateAppend without threshold accepted")
	}
	// Cancellation passes through unwrapped.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := UpdateAppend(cctx, res, delta, WithAbsoluteMinSupport(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled UpdateAppend err = %v, want context.Canceled", err)
	}
}

// TestUpdateAppendSwap runs an incremental result through the
// QueryService swap path that the refresher uses.
func TestUpdateAppendSwap(t *testing.T) {
	ctx := context.Background()
	base, err := NewDataset([][]int{{0, 1, 2}, {0, 2}, {1, 2}, {0, 1, 2}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineContext(ctx, base, WithMinSupport(0.3))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := NewQueryService(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if qs.ServedResult() != res {
		t.Fatal("ServedResult != initial result")
	}
	delta, err := NewDataset([][]int{{0, 1, 2}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := UpdateAppend(ctx, qs.ServedResult(), delta, WithMinSupport(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Swap(inc); err != nil {
		t.Fatalf("Swap(incremental): %v", err)
	}
	if qs.ServedResult() != inc {
		t.Fatal("ServedResult not updated by Swap")
	}
	if got := qs.NumTransactions(); got != 7 {
		t.Fatalf("NumTransactions = %d, want 7", got)
	}
}
