package trace

import (
	"strings"
	"testing"

	"dima/internal/automaton"
	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
)

func TestRecorderCollectsAndValidates(t *testing.T) {
	rec := NewRecorder(0)
	g := gen.Cycle(6)
	res, err := core.ColorEdges(g, core.Options{Seed: 1, Hook: rec.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("run did not terminate")
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	nodes := rec.Nodes()
	if len(nodes) != 6 {
		t.Fatalf("events from %d nodes, want 6", len(nodes))
	}
	for _, n := range nodes {
		path := rec.NodePath(n)
		if path[len(path)-1] != automaton.Done {
			t.Fatalf("node %d path does not end in Done: %v", n, path)
		}
		if path[0] != automaton.Choose {
			t.Fatalf("node %d path does not start in Choose", n)
		}
	}
}

func TestRecorderStateCounts(t *testing.T) {
	rec := NewRecorder(0)
	g := gen.Path(2)
	if _, err := core.ColorEdges(g, core.Options{Seed: 2, Hook: rec.Hook()}); err != nil {
		t.Fatal(err)
	}
	counts := map[automaton.State]int{}
	for _, e := range rec.Events() {
		counts[e.To]++
	}
	if counts[automaton.Done] != 2 {
		t.Fatalf("Done entered %d times, want 2", counts[automaton.Done])
	}
	// Every computation round enters Update and Exchange once per node.
	if counts[automaton.Update] != counts[automaton.Exchange] {
		t.Fatalf("U count %d != E count %d", counts[automaton.Update], counts[automaton.Exchange])
	}
}

func TestRecorderLimit(t *testing.T) {
	rec := NewRecorder(3)
	g := gen.Cycle(5)
	if _, err := core.ColorEdges(g, core.Options{Seed: 3, Hook: rec.Hook()}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 3 {
		t.Fatalf("recorded %d events, limit 3", rec.Len())
	}
}

func TestTimelineRendering(t *testing.T) {
	rec := NewRecorder(0)
	g := gen.Path(2)
	if _, err := core.ColorEdges(g, core.Options{Seed: 4, Hook: rec.Hook()}); err != nil {
		t.Fatal(err)
	}
	tl := rec.Timeline()
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 2 {
		t.Fatalf("timeline lines: %q", tl)
	}
	if !strings.HasPrefix(lines[0], "node   0: C ") {
		t.Fatalf("line 0: %q", lines[0])
	}
	if !strings.HasSuffix(strings.TrimSpace(lines[0]), "D") {
		t.Fatalf("line 0 should end in D: %q", lines[0])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	rec := NewRecorder(0)
	h := rec.Hook()
	h(0, automaton.Choose, automaton.Invite)
	h(0, automaton.Invite, automaton.Listen) // illegal edge
	if err := rec.Validate(); err == nil {
		t.Fatal("Validate accepted illegal walk")
	}
}

func TestRecorderWithStrongColoring(t *testing.T) {
	rec := NewRecorder(0)
	d := graph.NewSymmetric(gen.Cycle(5))
	res, err := core.ColorStrong(d, core.Options{Seed: 5, Hook: rec.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("did not terminate")
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEventsCopy(t *testing.T) {
	rec := NewRecorder(0)
	rec.Hook()(1, automaton.Choose, automaton.Listen)
	ev := rec.Events()
	ev[0].Node = 99
	if rec.Events()[0].Node != 1 {
		t.Fatal("Events returned shared storage")
	}
}
