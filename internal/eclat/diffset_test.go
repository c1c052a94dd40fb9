package eclat

import (
	"math/rand"
	"testing"

	"closedrules/internal/dataset"
	"closedrules/internal/naive"
	"closedrules/internal/testgen"
)

func TestMineDiffsetClassic(t *testing.T) {
	fam, err := MineDiffset(classic(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Len() != 15 {
		t.Fatalf("|FI| = %d, want 15: %v", fam.Len(), fam.All())
	}
}

func TestMineDiffsetValidation(t *testing.T) {
	if _, err := MineDiffset(classic(t), 0); err == nil {
		t.Error("minSup 0 accepted")
	}
}

func TestMineDiffsetEmpty(t *testing.T) {
	d, _ := dataset.FromTransactions(nil)
	fam, err := MineDiffset(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Len() != 0 {
		t.Errorf("|FI| = %d", fam.Len())
	}
}

// TestDiffsetEqualsTidset: dEclat and Eclat must agree itemset-by-
// itemset, support-by-support, on randomized contexts.
func TestDiffsetEqualsTidset(t *testing.T) {
	r := rand.New(rand.NewSource(811))
	for iter := 0; iter < 80; iter++ {
		d := testgen.Random(r, 25, 10, 0.4)
		minSup := 1 + r.Intn(4)
		a, err := Mine(d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MineDiffset(d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("iter %d: eclat %d itemsets, declat %d", iter, a.Len(), b.Len())
		}
	}
}

func TestMineDiffsetAgainstNaiveCorrelated(t *testing.T) {
	r := rand.New(rand.NewSource(821))
	for iter := 0; iter < 15; iter++ {
		d := testgen.Correlated(r, 60, 5, 3, 0.2)
		minSup := 2 + r.Intn(6)
		fam, err := MineDiffset(d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.FrequentItemsets(d.Context(), minSup)
		if !fam.Equal(want) {
			t.Fatalf("iter %d: declat %d, naive %d", iter, fam.Len(), want.Len())
		}
	}
}

func TestMineDiffsetParallelByteIdentical(t *testing.T) {
	assertWorkerCountInvisible(t, MineDiffsetContext, 167)
}

// TestMineDiffsetParallelMatchesEclat cross-checks the representations:
// diffsets on 3 workers against tidset Eclat on one.
func TestMineDiffsetParallelMatchesEclat(t *testing.T) {
	r := rand.New(rand.NewSource(173))
	for iter := 0; iter < 20; iter++ {
		d := testgen.Correlated(r, 60, 5, 3, 0.15)
		minSup := 2 + r.Intn(6)
		want, err := MineContext(workers(1), d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MineDiffsetContext(workers(3), d, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("iter %d: diffset on 3 workers %d itemsets, eclat %d", iter, got.Len(), want.Len())
		}
	}
}

func TestMineDiffsetParallelCancelledMidMine(t *testing.T) {
	assertCancelledMidMine(t, MineDiffsetContext, 179)
}

func TestMineDiffsetParallelEmptyAndValidation(t *testing.T) {
	assertEmptyAndValidation(t, MineDiffsetContext)
}
