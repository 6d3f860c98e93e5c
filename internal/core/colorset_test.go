package core

import (
	"testing"
	"testing/quick"
)

func TestColorSetZeroValue(t *testing.T) {
	var s ColorSet
	if s.Has(0) || s.Count() != 0 || s.Max() != -1 {
		t.Fatal("zero ColorSet not empty")
	}
}

func TestColorSetAddHas(t *testing.T) {
	var s ColorSet
	for _, c := range []int{0, 1, 63, 64, 65, 1000} {
		s.Add(c)
		if !s.Has(c) {
			t.Fatalf("Has(%d) false after Add", c)
		}
	}
	if s.Count() != 6 {
		t.Fatalf("Count = %d, want 6", s.Count())
	}
	if s.Max() != 1000 {
		t.Fatalf("Max = %d, want 1000", s.Max())
	}
	if s.Has(2) || s.Has(999) {
		t.Fatal("Has true for absent colors")
	}
	if s.Has(-1) {
		t.Fatal("Has(-1) true")
	}
}

func TestColorSetAddIdempotent(t *testing.T) {
	var s ColorSet
	s.Add(5)
	s.Add(5)
	if s.Count() != 1 {
		t.Fatalf("Count = %d after duplicate Add", s.Count())
	}
}

func TestColorSetAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var s ColorSet
	s.Add(-1)
}

func TestColorSetClone(t *testing.T) {
	var s ColorSet
	s.Add(3)
	c := s.Clone()
	c.Add(7)
	if s.Has(7) {
		t.Fatal("Clone shares storage")
	}
	if !c.Has(3) {
		t.Fatal("Clone lost contents")
	}
}

func TestLowestFreeEmpty(t *testing.T) {
	if got := LowestFree(); got != 0 {
		t.Fatalf("LowestFree() = %d", got)
	}
	if got := LowestFree(nil, nil); got != 0 {
		t.Fatalf("LowestFree(nil,nil) = %d", got)
	}
}

func TestLowestFreeSkipsUnion(t *testing.T) {
	var a, b ColorSet
	a.Add(0)
	a.Add(2)
	b.Add(1)
	if got := LowestFree(&a, &b); got != 3 {
		t.Fatalf("LowestFree = %d, want 3", got)
	}
}

func TestLowestFreeFullWord(t *testing.T) {
	var s ColorSet
	for c := 0; c < 64; c++ {
		s.Add(c)
	}
	if got := LowestFree(&s); got != 64 {
		t.Fatalf("LowestFree = %d, want 64", got)
	}
	s.Add(65)
	if got := LowestFree(&s); got != 64 {
		t.Fatalf("LowestFree = %d, want 64 (65 used)", got)
	}
}

func TestFreeBelow(t *testing.T) {
	var a, b ColorSet
	a.Add(0)
	b.Add(2)
	got := FreeBelow(5, &a, &b, nil)
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("FreeBelow = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreeBelow = %v, want %v", got, want)
		}
	}
	if FreeBelow(0, &a) != nil {
		t.Fatal("FreeBelow(0) not empty")
	}
}

func TestMaxOf(t *testing.T) {
	var a, b ColorSet
	if MaxOf(&a, &b, nil) != -1 {
		t.Fatal("MaxOf of empties not -1")
	}
	a.Add(9)
	b.Add(70)
	if MaxOf(&a, &b) != 70 {
		t.Fatalf("MaxOf = %d", MaxOf(&a, &b))
	}
}

func TestQuickLowestFreeIsFree(t *testing.T) {
	f := func(colors []uint8) bool {
		var s ColorSet
		for _, c := range colors {
			s.Add(int(c))
		}
		low := LowestFree(&s)
		if s.Has(low) {
			return false
		}
		for c := 0; c < low; c++ {
			if !s.Has(c) {
				return false // not the lowest
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountMatchesDistinct(t *testing.T) {
	f := func(colors []uint16) bool {
		var s ColorSet
		distinct := map[uint16]bool{}
		for _, c := range colors {
			s.Add(int(c))
			distinct[c] = true
		}
		return s.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColorSetInlineWordNeverAllocates(t *testing.T) {
	var s, t2 ColorSet
	allocs := testing.AllocsPerRun(100, func() {
		for c := 0; c < 64; c++ {
			s.Add(c)
		}
		t2.AddSet(&s)
		_ = LowestFree(&s, &t2)
	})
	if allocs != 0 {
		t.Fatalf("colors below 64 allocated %v times", allocs)
	}
	if s.Count() != 64 || s.Max() != 63 || LowestFree(&s) != 64 {
		t.Fatalf("full inline word: count %d max %d lowest free %d", s.Count(), s.Max(), LowestFree(&s))
	}
}

// TestQuickNthFreeMatchesFreeBelow pins the buffer-free draw of the
// random color rules to the list it replaces.
func TestQuickNthFreeMatchesFreeBelow(t *testing.T) {
	f := func(a, b []uint8, rawBound uint8) bool {
		var sa, sb ColorSet
		for _, c := range a {
			sa.Add(int(c))
		}
		for _, c := range b {
			sb.Add(int(c) * 3)
		}
		bound := int(rawBound) + 1
		free := FreeBelow(bound, &sa, &sb, nil)
		if CountFreeBelow(bound, &sa, &sb, nil) != len(free) {
			return false
		}
		for k, c := range free {
			if NthFreeBelow(bound, k, &sa, &sb, nil) != c {
				return false
			}
		}
		return NthFreeBelow(bound, len(free), &sa, &sb, nil) == -1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
