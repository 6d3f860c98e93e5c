package automaton

import (
	"errors"
	"slices"
	"testing"

	"dima/internal/msg"
)

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Choose: "C", Invite: "I", Listen: "L", Respond: "R",
		Wait: "W", Update: "U", Exchange: "E", Done: "D",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("State(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
	if State(99).String() != "state(99)" {
		t.Fatalf("unknown state string: %q", State(99).String())
	}
}

func TestTransitionTable(t *testing.T) {
	legal := map[State][]State{
		Choose:   {Invite, Listen},
		Invite:   {Wait},
		Listen:   {Respond},
		Respond:  {Update},
		Wait:     {Update},
		Update:   {Exchange},
		Exchange: {Choose, Done},
		Done:     {},
	}
	all := []State{Choose, Invite, Listen, Respond, Wait, Update, Exchange, Done}
	for _, from := range all {
		allowed := map[State]bool{}
		for _, to := range legal[from] {
			allowed[to] = true
		}
		for _, to := range all {
			if got := from.CanTransitionTo(to); got != allowed[to] {
				t.Fatalf("CanTransitionTo(%v -> %v) = %v, want %v", from, to, got, allowed[to])
			}
		}
	}
}

func TestMachineHappyPathInviter(t *testing.T) {
	// The inviter-side cycle of one computation round: C→I→W→U→E→C.
	transitions := 0
	m := NewMachine(3, func(int, State, State) { transitions++ })
	for _, s := range []State{Invite, Wait, Update, Exchange, Choose} {
		if err := m.TransitionTo(s); err != nil {
			t.Fatal(err)
		}
	}
	if m.State() != Choose || transitions != 5 {
		t.Fatalf("state %v after %d transitions", m.State(), transitions)
	}
}

func TestMachineHappyPathListener(t *testing.T) {
	// Listener-side cycle ending in Done: C→L→R→U→E→D.
	m := NewMachine(0, nil)
	for _, s := range []State{Listen, Respond, Update, Exchange, Done} {
		if err := m.TransitionTo(s); err != nil {
			t.Fatal(err)
		}
	}
	if m.State() != Done {
		t.Fatalf("state %v, want D", m.State())
	}
	// Done is absorbing.
	if err := m.TransitionTo(Choose); err == nil {
		t.Fatal("escaped Done state")
	}
}

func TestMachineIllegalTransition(t *testing.T) {
	transitions := 0
	m := NewMachine(7, func(int, State, State) { transitions++ })
	err := m.TransitionTo(Wait) // C→W is not an automaton edge
	if err == nil {
		t.Fatal("C→W accepted")
	}
	var te *TransitionError
	if !errors.As(err, &te) {
		t.Fatalf("error type %T", err)
	}
	if te.Node != 7 || te.From != Choose || te.To != Wait {
		t.Fatalf("error fields: %+v", te)
	}
	if te.Error() == "" {
		t.Fatal("empty error message")
	}
	// State unchanged, and no hook fired, after a failed transition.
	if m.State() != Choose || transitions != 0 {
		t.Fatal("failed transition mutated machine")
	}
}

func TestMachineMustTransitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustTransition did not panic on illegal edge")
		}
	}()
	NewMachine(0, nil).MustTransition(Done)
}

func TestMachineHook(t *testing.T) {
	type rec struct {
		node     int
		from, to State
	}
	var got []rec
	m := NewMachine(4, func(node int, from, to State) {
		got = append(got, rec{node, from, to})
	})
	m.MustTransition(Listen)
	m.MustTransition(Respond)
	if len(got) != 2 {
		t.Fatalf("hook fired %d times", len(got))
	}
	if got[0] != (rec{4, Choose, Listen}) || got[1] != (rec{4, Listen, Respond}) {
		t.Fatalf("hook records %v", got)
	}
}

// TestMachineRestart: Restart resets to Choose unseen by the hook and
// walks the listener's cycle into the requested state, one legal,
// hooked transition at a time.
func TestMachineRestart(t *testing.T) {
	cases := []struct {
		to   State
		walk []State
	}{
		{Listen, []State{Listen}},
		{Respond, []State{Listen, Respond}},
		{Exchange, []State{Listen, Respond, Update, Exchange}},
		{Choose, []State{Listen, Respond, Update, Exchange, Choose}},
		{Done, []State{Listen, Respond, Update, Exchange, Done}},
	}
	for _, c := range cases {
		var got []State
		prev := Done
		m := NewMachine(3, func(node int, from, to State) {
			if node != 3 || !from.CanTransitionTo(to) {
				t.Fatalf("restart to %v: hook saw %d: %v -> %v", c.to, node, from, to)
			}
			if len(got) > 0 && from != prev {
				t.Fatalf("restart to %v: walk jumped from %v to %v", c.to, prev, from)
			}
			prev = to
			got = append(got, to)
		})
		m.state = Done // a finished node, as recovery finds it
		m.Restart(c.to)
		if m.State() != c.to || !slices.Equal(got, c.walk) {
			t.Fatalf("restart to %v: state %v, walk %v, want %v", c.to, m.State(), got, c.walk)
		}
	}
}

func TestFindResponse(t *testing.T) {
	inbox := []msg.Message{
		{Kind: msg.KindResponse, From: 2, To: 0, Edge: 7, Color: 1},
		{Kind: msg.KindResponse, From: 3, To: 8, Edge: 9, Color: 1},
		{Kind: msg.KindInvite, From: 4, To: 0, Edge: 7, Color: 2},
		{Kind: msg.KindResponse, From: 5, To: 0, Edge: 6, Color: 0},
	}
	acc, ok := FindResponse(0, 7, inbox)
	if !ok || acc.From != 2 {
		t.Fatalf("accepted = %v ok=%v", acc, ok)
	}
	_, ok = FindResponse(0, 99, inbox[:2])
	if ok {
		t.Fatal("found response for wrong edge")
	}
}
