// Package trace records automaton state transitions during a run and
// renders per-node timelines — the debugging view of the matching
// automaton. A Recorder plugs into core.Options.Hook and is safe for
// concurrent use (the shard engine fires hooks from its worker
// goroutines).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dima/internal/automaton"
)

// Event is one recorded state transition.
type Event struct {
	// Seq is the global sequence number, in observation order. Under the
	// shard engine with several workers, observation order across shards
	// is nondeterministic; per-node order is always faithful.
	Seq  int
	Node int
	From automaton.State
	To   automaton.State
}

// Recorder accumulates transition events.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped int
}

// NewRecorder returns a recorder keeping at most limit events
// (0 = unlimited).
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Hook returns the automaton hook that feeds this recorder.
func (r *Recorder) Hook() automaton.Hook {
	return func(node int, from, to automaton.State) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.limit > 0 && len(r.events) >= r.limit {
			r.dropped++
			return
		}
		r.events = append(r.events, Event{Seq: len(r.events), Node: node, From: from, To: to})
	}
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped returns the number of transitions discarded after the event
// limit was reached. A nonzero count means every per-node view is a
// prefix of the true history.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// NodePath returns the sequence of states node visited, starting from
// Choose (the machine's initial state).
func (r *Recorder) NodePath(node int) []automaton.State {
	r.mu.Lock()
	defer r.mu.Unlock()
	path := []automaton.State{automaton.Choose}
	for _, e := range r.events {
		if e.Node == node {
			path = append(path, e.To)
		}
	}
	return path
}

// Nodes returns the sorted ids of all nodes with recorded events.
func (r *Recorder) Nodes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[int]bool{}
	for _, e := range r.events {
		seen[e.Node] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Validate checks that every node's recorded path is a legal walk of the
// automaton and that the trace is complete: a recorder that hit its
// event limit holds truncated paths, which Validate reports as an error
// rather than silently vouching for a partial history.
func (r *Recorder) Validate() error {
	if d := r.Dropped(); d > 0 {
		return fmt.Errorf("trace: incomplete: %d transitions dropped past the %d-event limit", d, r.limit)
	}
	for _, node := range r.Nodes() {
		path := r.NodePath(node)
		for i := 0; i+1 < len(path); i++ {
			if !path[i].CanTransitionTo(path[i+1]) {
				return fmt.Errorf("trace: node %d illegal step %v -> %v at position %d",
					node, path[i], path[i+1], i)
			}
		}
	}
	return nil
}

// Timeline renders one line per node: "node  3: C I W U E C L R U E D".
// Only nodes with events appear.
func (r *Recorder) Timeline() string {
	var b strings.Builder
	for _, node := range r.Nodes() {
		states := r.NodePath(node)
		parts := make([]string, len(states))
		for i, s := range states {
			parts[i] = s.String()
		}
		fmt.Fprintf(&b, "node %3d: %s\n", node, strings.Join(parts, " "))
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, "(truncated: %d transitions dropped past the %d-event limit)\n", d, r.limit)
	}
	return b.String()
}
