package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	for _, w := range []int{0, 1, 63, 64, 65, 200} {
		s := New(w)
		if !s.IsEmpty() {
			t.Errorf("New(%d) not empty", w)
		}
		if s.Count() != 0 {
			t.Errorf("New(%d).Count() = %d", w, s.Count())
		}
		if s.Width() != w {
			t.Errorf("New(%d).Width() = %d", w, s.Width())
		}
	}
}

func TestAddHasRemove(t *testing.T) {
	s := New(130)
	for _, x := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(x) {
			t.Fatalf("Has(%d) before Add", x)
		}
		s.Add(x)
		if !s.Has(x) {
			t.Fatalf("!Has(%d) after Add", x)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Has(64) {
		t.Fatal("Has(64) after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	// Adding twice is idempotent.
	s.Add(0)
	if got := s.Count(); got != 7 {
		t.Fatalf("Count after double Add = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(10).Add(10) },
		func() { New(10).Add(-1) },
		func() { New(10).Has(100) },
		func() { New(10).Remove(10) },
		func() { New(-1) },
		func() { New(10).And(New(11)) },
		func() { New(10).IsSubset(New(64)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFullAndFillTrim(t *testing.T) {
	for _, w := range []int{1, 63, 64, 65, 100, 128} {
		s := Full(w)
		if got := s.Count(); got != w {
			t.Errorf("Full(%d).Count() = %d", w, got)
		}
		// trim must keep bits beyond width zero so Equal works.
		e := New(w)
		for i := 0; i < w; i++ {
			e.Add(i)
		}
		if !s.Equal(e) {
			t.Errorf("Full(%d) != element-wise fill", w)
		}
	}
	s := Full(0)
	if !s.IsEmpty() {
		t.Error("Full(0) not empty")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice(100, []int{1, 5, 64, 70, 99})
	b := FromSlice(100, []int{5, 64, 65})

	if got := a.Intersect(b).Slice(); !reflect.DeepEqual(got, []int{5, 64}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b).Slice(); !reflect.DeepEqual(got, []int{1, 5, 64, 65, 70, 99}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Difference(b).Slice(); !reflect.DeepEqual(got, []int{1, 70, 99}) {
		t.Errorf("Difference = %v", got)
	}
	if got := a.IntersectionCount(b); got != 2 {
		t.Errorf("IntersectionCount = %d", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false")
	}
	if a.Intersects(FromSlice(100, []int{2, 3})) {
		t.Error("Intersects disjoint = true")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice(70, []int{0, 1, 69})
	b := FromSlice(70, []int{1, 69})
	c := a.Clone()
	c.And(b)
	if got := c.Slice(); !reflect.DeepEqual(got, []int{1, 69}) {
		t.Errorf("And = %v", got)
	}
	c = a.Clone()
	c.Or(FromSlice(70, []int{5}))
	if got := c.Slice(); !reflect.DeepEqual(got, []int{0, 1, 5, 69}) {
		t.Errorf("Or = %v", got)
	}
	c = a.Clone()
	c.AndNot(b)
	if got := c.Slice(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("AndNot = %v", got)
	}
	// a must be untouched by Clone-based ops.
	if got := a.Slice(); !reflect.DeepEqual(got, []int{0, 1, 69}) {
		t.Errorf("a mutated: %v", got)
	}
}

func TestSubsetRelations(t *testing.T) {
	a := FromSlice(128, []int{2, 64})
	b := FromSlice(128, []int{2, 64, 100})
	if !a.IsSubset(b) || !a.IsProperSubset(b) {
		t.Error("a should be proper subset of b")
	}
	if b.IsSubset(a) {
		t.Error("b ⊆ a should be false")
	}
	if !a.IsSubset(a) || a.IsProperSubset(a) {
		t.Error("reflexivity broken")
	}
	if !New(128).IsSubset(a) {
		t.Error("∅ ⊆ a should hold")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := FromSlice(200, []int{3, 5, 64, 128, 199})
	var seen []int
	s.ForEach(func(x int) bool {
		seen = append(seen, x)
		return true
	})
	if !sort.IntsAreSorted(seen) {
		t.Errorf("ForEach out of order: %v", seen)
	}
	if !reflect.DeepEqual(seen, []int{3, 5, 64, 128, 199}) {
		t.Errorf("ForEach = %v", seen)
	}
	var count int
	s.ForEach(func(x int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestNext(t *testing.T) {
	s := FromSlice(200, []int{3, 64, 199})
	cases := []struct{ in, want int }{
		{-5, 3}, {0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 199}, {199, 199}, {200, -1},
	}
	for _, c := range cases {
		if got := s.Next(c.in); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := New(10).Next(0); got != -1 {
		t.Errorf("empty Next = %d", got)
	}
}

func TestString(t *testing.T) {
	if got := FromSlice(10, []int{1, 3}).String(); got != "{1, 3}" {
		t.Errorf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestHashDistinguishes(t *testing.T) {
	a := FromSlice(100, []int{1, 2, 3})
	b := FromSlice(100, []int{1, 2, 4})
	if a.Hash() == b.Hash() {
		t.Error("hash collision on trivially different sets (suspicious)")
	}
	if a.Hash() != a.Clone().Hash() {
		t.Error("hash not deterministic")
	}
}

// randomSet draws a set and its reference map representation.
func randomSet(r *rand.Rand, width int) (Set, map[int]bool) {
	s := New(width)
	m := map[int]bool{}
	n := r.Intn(width + 1)
	for i := 0; i < n; i++ {
		x := r.Intn(width)
		s.Add(x)
		m[x] = true
	}
	return s, m
}

func TestQuickAgainstMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		width := 1 + r.Intn(180)
		a, ma := randomSet(r, width)
		b, mb := randomSet(r, width)

		inter := a.Intersect(b)
		uni := a.Union(b)
		diff := a.Difference(b)
		for x := 0; x < width; x++ {
			if inter.Has(x) != (ma[x] && mb[x]) {
				t.Fatalf("intersect mismatch at %d", x)
			}
			if uni.Has(x) != (ma[x] || mb[x]) {
				t.Fatalf("union mismatch at %d", x)
			}
			if diff.Has(x) != (ma[x] && !mb[x]) {
				t.Fatalf("difference mismatch at %d", x)
			}
		}
		if inter.Count() != a.IntersectionCount(b) {
			t.Fatal("IntersectionCount != Intersect().Count()")
		}
		if got, want := uni.Count(), a.Count()+b.Count()-inter.Count(); got != want {
			t.Fatalf("inclusion-exclusion: %d != %d", got, want)
		}
		if inter.IsSubset(a) != true || inter.IsSubset(b) != true {
			t.Fatal("intersection not subset of operands")
		}
		if !a.IsSubset(uni) || !b.IsSubset(uni) {
			t.Fatal("operand not subset of union")
		}
	}
}

func TestQuickSliceRoundTrip(t *testing.T) {
	f := func(elems []uint8) bool {
		s := New(256)
		want := map[int]bool{}
		for _, e := range elems {
			s.Add(int(e))
			want[int(e)] = true
		}
		got := s.Slice()
		if len(got) != len(want) {
			return false
		}
		for _, x := range got {
			if !want[x] {
				return false
			}
		}
		return sort.IntsAreSorted(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInPlacePrimitives cross-checks the allocation-free ops against
// their allocating counterparts on random operands, including aliased
// destinations.
func TestInPlacePrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(200)
		a, b := New(width), New(width)
		for i := 0; i < width; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
			if rng.Intn(2) == 0 {
				b.Add(i)
			}
		}
		dst := New(width)
		if dst.AndInto(a, b); !dst.Equal(a.Intersect(b)) {
			t.Fatal("AndInto != Intersect")
		}
		if dst.OrInto(a, b); !dst.Equal(a.Union(b)) {
			t.Fatal("OrInto != Union")
		}
		if dst.AndNotInto(a, b); !dst.Equal(a.Difference(b)) {
			t.Fatal("AndNotInto != Difference")
		}
		if got, want := a.IntersectionCount(b), a.Intersect(b).Count(); got != want {
			t.Fatalf("IntersectionCount = %d, want %d", got, want)
		}
		if got, want := a.AndNotCount(b), a.Difference(b).Count(); got != want {
			t.Fatalf("AndNotCount = %d, want %d", got, want)
		}
		if got, want := a.IsSubsetOf(b), a.Difference(b).IsEmpty(); got != want {
			t.Fatalf("IsSubsetOf = %v, want %v", got, want)
		}
		// Aliased destination: dst == a.
		aCopy := a.Clone()
		aCopy.AndInto(aCopy, b)
		if !aCopy.Equal(a.Intersect(b)) {
			t.Fatal("aliased AndInto differs")
		}
		// Copy reuses storage.
		scratch := New(width)
		scratch.Copy(a)
		if !scratch.Equal(a) {
			t.Fatal("Copy differs")
		}
	}
}

// TestInPlacePrimitivesAllocFree asserts the hot-path probes allocate
// nothing per operation.
func TestInPlacePrimitivesAllocFree(t *testing.T) {
	a, b, dst := Full(1000), New(1000), New(1000)
	for i := 0; i < 1000; i += 3 {
		b.Add(i)
	}
	n := testing.AllocsPerRun(100, func() {
		dst.AndInto(a, b)
		_ = a.IntersectionCount(b)
		_ = a.AndNotCount(b)
		_ = b.IsSubsetOf(a)
		dst.Copy(b)
	})
	if n != 0 {
		t.Fatalf("allocs per run = %v, want 0", n)
	}
}

// TestInPlaceWidthMismatchPanics verifies the width contract.
func TestInPlaceWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on width mismatch")
		}
	}()
	New(10).AndInto(New(10), New(20))
}

// TestMultiWayPrimitives checks NextInAll and AndNotAll against the
// materialized intersection, on widths that span several words and
// start offsets inside, at and past word boundaries.
func TestMultiWayPrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 300; trial++ {
		width := 1 + rng.Intn(300)
		sets := make([]Set, 1+rng.Intn(4))
		inter := Full(width)
		for k := range sets {
			sets[k] = New(width)
			for i := 0; i < width; i++ {
				if rng.Intn(3) != 0 {
					sets[k].Add(i)
				}
			}
			inter.And(sets[k])
		}
		for _, x := range []int{-1, 0, rng.Intn(width), 63, 64, 65, 128, width - 1, width} {
			want := inter.Next(x)
			if got := NextInAll(sets, x); got != want {
				t.Fatalf("width %d: NextInAll(·, %d) = %d, want %d", width, x, got, want)
			}
			s := New(width)
			for i := 0; i < width; i++ {
				if rng.Intn(2) == 0 {
					s.Add(i)
				}
			}
			wantS := s.Clone()
			inter.ForEach(func(e int) bool {
				if e >= x {
					wantS.Remove(e)
				}
				return true
			})
			s.AndNotAll(sets, x)
			if !s.Equal(wantS) {
				t.Fatalf("width %d: AndNotAll(·, %d) = %v, want %v", width, x, s, wantS)
			}
		}
	}
	a := Full(1000)
	sets := []Set{a, Full(1000)}
	if n := testing.AllocsPerRun(100, func() {
		_ = NextInAll(sets, 500)
		a.AndNotAll(sets[1:], 999)
	}); n != 0 {
		t.Fatalf("allocs per run = %v, want 0", n)
	}
}
