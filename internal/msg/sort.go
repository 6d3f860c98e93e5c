package msg

import "math/bits"

// Sort sorts msgs in place into the canonical Less order. It is the
// engines' inbox sort: every engine canonicalizes a node's inbox with
// Sort before handing it to Step, so protocol logic sees the same
// sequence regardless of which engine delivered the messages.
//
// The implementation is specialized to []Message — no reflection, no
// interface dispatch — because inbox sorting sits on the hottest path of
// every run (once per node per communication round). Every engine
// delivers in ascending sender order, so an inbox arrives grouped by
// From, Less's first key: one linear pass finds the runs of equal From
// and sorts only those, and an inbox with strictly ascending From (the
// common case) is returned untouched. A run is short (the messages one
// neighbor sent in one round), so it takes the insertion sort. Only an
// inbox whose From decreases somewhere is sorted whole, by a
// median-of-three quicksort with a depth bound and a heapsort fallback;
// longer runs take it too, keeping the worst case O(n log n).
func Sort(msgs []Message) {
	run := 0 // start of the current run of equal From
	for i := 1; i < len(msgs); i++ {
		switch {
		case msgs[i-1].From < msgs[i].From:
			sortRun(msgs[run:i])
			run = i
		case msgs[i-1].From > msgs[i].From:
			sortRun(msgs)
			return
		}
	}
	sortRun(msgs[run:])
}

// sortRun sorts s, which is usually a run of one sender's messages.
func sortRun(s []Message) {
	if len(s) > 1 {
		quickSortMsgs(s, 2*bits.Len(uint(len(s))))
	}
}

// sortSmallMax is the slice length at or below which insertion sort is
// used directly.
const sortSmallMax = 16

func quickSortMsgs(s []Message, depth int) {
	for len(s) > sortSmallMax {
		if depth == 0 {
			heapSortMsgs(s)
			return
		}
		depth--
		p := partitionMsgs(s)
		// Recurse into the smaller side, iterate on the larger, so the
		// stack stays O(log n).
		if p < len(s)-p-1 {
			quickSortMsgs(s[:p], depth)
			s = s[p+1:]
		} else {
			quickSortMsgs(s[p+1:], depth)
			s = s[:p]
		}
	}
	insertionSortMsgs(s)
}

func insertionSortMsgs(s []Message) {
	for i := 1; i < len(s); i++ {
		m := s[i]
		j := i
		for j > 0 && Less(m, s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = m
	}
}

// partitionMsgs partitions s around a median-of-three pivot and returns
// the pivot's final index. Only called with len(s) > sortSmallMax.
func partitionMsgs(s []Message) int {
	hi := len(s) - 1
	mid := hi / 2
	// Order s[0] <= s[mid] <= s[hi], then park the median at hi-1.
	if Less(s[mid], s[0]) {
		s[0], s[mid] = s[mid], s[0]
	}
	if Less(s[hi], s[0]) {
		s[0], s[hi] = s[hi], s[0]
	}
	if Less(s[hi], s[mid]) {
		s[mid], s[hi] = s[hi], s[mid]
	}
	s[mid], s[hi-1] = s[hi-1], s[mid]
	pivot := s[hi-1]
	i := 0
	for j := 0; j < hi-1; j++ {
		if Less(s[j], pivot) {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[hi-1] = s[hi-1], s[i]
	return i
}

func heapSortMsgs(s []Message) {
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownMsgs(s, i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftDownMsgs(s, 0, i)
	}
}

func siftDownMsgs(s []Message, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && Less(s[c], s[c+1]) {
			c++
		}
		if !Less(s[root], s[c]) {
			return
		}
		s[root], s[c] = s[c], s[root]
		root = c
	}
}
