package msg

import (
	"testing"
)

func TestBatchValidate(t *testing.T) {
	ins := func(u, v int) Mutation { return Mutation{Op: OpInsert, U: u, V: v} }
	del := func(u, v int) Mutation { return Mutation{Op: OpDelete, U: u, V: v} }
	cases := []struct {
		name string
		b    MutationBatch
		n    int
		ok   bool
	}{
		{"empty", MutationBatch{}, 10, true},
		{"mixed", MutationBatch{Muts: []Mutation{ins(0, 1), del(2, 3)}}, 4, true},
		{"unchecked range", MutationBatch{Muts: []Mutation{ins(0, 999)}}, 0, true},
		{"self-loop", MutationBatch{Muts: []Mutation{ins(2, 2)}}, 10, false},
		{"negative", MutationBatch{Muts: []Mutation{ins(-1, 2)}}, 10, false},
		{"out of range", MutationBatch{Muts: []Mutation{ins(0, 10)}}, 10, false},
		{"bad op", MutationBatch{Muts: []Mutation{{Op: 9, U: 0, V: 1}}}, 10, false},
		{"duplicate pair", MutationBatch{Muts: []Mutation{ins(0, 1), del(1, 0)}}, 10, false},
	}
	for _, c := range cases {
		if err := c.b.Validate(c.n); (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}
