package msg

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randomMessages builds n messages with field values drawn so that
// duplicates and near-duplicates (equal prefixes differing only in late
// Less fields) are common.
func randomMessages(r *rand.Rand, n int) []Message {
	kinds := []Kind{KindInvite, KindResponse, KindClaim, KindDecide, KindUpdate, KindAck}
	out := make([]Message, n)
	for i := range out {
		m := Message{
			Kind:  kinds[r.Intn(len(kinds))],
			From:  r.Intn(6),
			To:    r.Intn(6),
			Edge:  r.Intn(4),
			Color: r.Intn(3) - 1,
			Keep:  r.Intn(2) == 0,
			Seq:   uint32(r.Intn(3)),
		}
		if r.Intn(4) == 0 {
			m.Paints = []Paint{{Edge: r.Intn(3), Color: r.Intn(3)}}
		}
		out[i] = m
	}
	return out
}

func assertSorted(t *testing.T, label string, got, want []Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length changed: %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if !Equal(got[i], want[i]) {
			t.Fatalf("%s: element %d differs:\ngot  %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// Sort must produce exactly the sequence sort.Slice-with-Less produces:
// Less is a total order over distinct messages, so any correct sort of
// the same multiset yields the same value sequence.
func TestSortMatchesReferenceSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 3, 7, 12, 13, 16, 17, 31, 64, 257, 1000}
	for _, n := range sizes {
		for trial := 0; trial < 20; trial++ {
			msgs := randomMessages(r, n)
			want := make([]Message, len(msgs))
			copy(want, msgs)
			sort.Slice(want, func(i, j int) bool { return Less(want[i], want[j]) })
			Sort(msgs)
			assertSorted(t, "random", msgs, want)
		}
	}
}

// Adversarial shapes: already sorted, reversed, all-equal, organ-pipe,
// and many-duplicates inputs exercise the pivot selection and the
// depth-limited fallback. The ascending shapes probe the sorted-inbox
// check: strictly ascending From returns at once whatever the later
// fields hold, while one repeated From or one swapped pair must fall
// through to the sort.
func TestSortAdversarialShapes(t *testing.T) {
	const n = 500
	r := rand.New(rand.NewSource(4))
	ascending := func(i int) Message {
		m := randomMessages(r, 1)[0]
		m.From = 2 * i
		return m
	}
	shapes := map[string]func(i int) Message{
		"ascending": ascending,
		"ascending-repeat": func(i int) Message {
			// Messages n/2-1 and n/2 share a From, out of Less order.
			m := ascending(i)
			switch i {
			case n/2 - 1:
				m.Kind = KindAck
			case n / 2:
				m.From, m.Kind = m.From-2, KindInvite
			}
			return m
		},
		"ascending-last-swapped": func(i int) Message {
			switch i {
			case n - 2:
				return ascending(n - 1)
			case n - 1:
				return ascending(n - 2)
			}
			return ascending(i)
		},
		"sorted":    func(i int) Message { return Message{Kind: KindInvite, From: i} },
		"reversed":  func(i int) Message { return Message{Kind: KindInvite, From: n - i} },
		"all-equal": func(i int) Message { return Message{Kind: KindClaim, From: 3, Edge: 7} },
		"organpipe": func(i int) Message {
			v := i
			if v > n/2 {
				v = n - v
			}
			return Message{Kind: KindInvite, From: v}
		},
		"two-values": func(i int) Message { return Message{Kind: KindInvite, From: i % 2} },
	}
	for name, f := range shapes {
		msgs := make([]Message, n)
		for i := range msgs {
			msgs[i] = f(i)
		}
		want := make([]Message, n)
		copy(want, msgs)
		sort.Slice(want, func(i, j int) bool { return Less(want[i], want[j]) })
		Sort(msgs)
		assertSorted(t, name, msgs, want)
	}
}

// compareLess is Less as a three-way comparison for slices.SortFunc.
func compareLess(a, b Message) int {
	switch {
	case Less(a, b):
		return -1
	case Less(b, a):
		return 1
	}
	return 0
}

// TestSortGroupedInboxes covers the inbox shape Algorithm 2 produces:
// ascending From with some senders repeated, each run of one sender in
// arbitrary order. Sort orders each run in place and must agree with
// slices.SortFunc under Less; runs of every length up to past the
// insertion-sort cutoff, a lone run, and a decrease after grouped runs
// (which sorts the whole inbox) are all covered.
func TestSortGroupedInboxes(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	grouped := func(runs []int) []Message {
		var out []Message
		for from, k := range runs {
			for _, m := range randomMessages(r, k) {
				m.From = 3 * from
				out = append(out, m)
			}
		}
		return out
	}
	shapes := map[string][]Message{
		"empty":          nil,
		"one-run":        grouped([]int{9}),
		"long-run":       grouped([]int{2, 40, 1}),
		"pairs":          grouped([]int{2, 2, 2, 2, 2}),
		"mixed":          grouped([]int{1, 3, 1, 1, 5, 2, 1, 17, 1}),
		"trailing-run":   grouped([]int{1, 1, 1, 4}),
		"leading-run":    grouped([]int{4, 1, 1, 1}),
		"sorted-runs":    nil,
		"decrease-after": append(grouped([]int{1, 3, 2}), Message{Kind: KindInvite, From: 1}),
	}
	sortedRuns := grouped([]int{3, 1, 6, 2})
	slices.SortFunc(sortedRuns, compareLess)
	shapes["sorted-runs"] = sortedRuns
	for trial := 0; trial < 50; trial++ {
		runs := make([]int, 1+r.Intn(8))
		for i := range runs {
			runs[i] = 1 + r.Intn(4)
		}
		shapes[fmt.Sprintf("random-%d", trial)] = grouped(runs)
	}
	for name, msgs := range shapes {
		want := slices.Clone(msgs)
		slices.SortFunc(want, compareLess)
		Sort(msgs)
		assertSorted(t, name, msgs, want)
	}
}

func BenchmarkSortInbox(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	base := randomMessages(r, 8)
	work := make([]Message, len(base))
	// delivered is the inbox shape engines hand to Step: ascending
	// sender order, which the sorted-inbox check accepts in one pass.
	delivered := make([]Message, len(base))
	copy(delivered, base)
	for i := range delivered {
		delivered[i].From = i
	}
	b.Run("delivered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(work, delivered)
			Sort(work)
		}
	})
	b.Run("specialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(work, base)
			Sort(work)
		}
	})
	b.Run("reflective", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(work, base)
			sort.Slice(work, func(i, j int) bool { return Less(work[i], work[j]) })
		}
	})
}
