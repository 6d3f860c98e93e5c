package graphio

import (
	"reflect"
	"strings"
	"testing"

	"dima/internal/msg"
)

func TestReadMutationsBatch(t *testing.T) {
	want := &msg.MutationBatch{Seq: 42, Muts: []msg.Mutation{
		{Op: msg.OpInsert, U: 0, V: 1},
		{Op: msg.OpDelete, U: 5, V: 2},
		{Op: msg.OpInsert, U: 3, V: 4},
	}}
	got, err := ReadMutations(strings.NewReader("# dima mutation list: 3 mutations\nbatch 42\n+ 0 1\n- 5 2\n+ 3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
}

func TestReadMutationsRejects(t *testing.T) {
	for name, src := range map[string]string{
		"bad directive": "x 1 2\n",
		"short line":    "+ 1\n",
		"bad endpoint":  "+ 1 two\n",
		"negative":      "- 1 -2\n",
		"bad batch":     "batch x\n",
	} {
		if _, err := ReadMutations(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadMutationsComments(t *testing.T) {
	b, err := ReadMutations(strings.NewReader("# header\n\nbatch 3\n+ 1 2\n  \n- 2 0\n# done\n"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Seq != 3 || len(b.Muts) != 2 {
		t.Fatalf("got %v", b)
	}
}

func FuzzReadMutations(f *testing.F) {
	f.Add("+ 0 1\n- 1 2\n")
	f.Add("batch 9\n+ 0 1\n")
	f.Add("# c\n\n+ 3 3\n")           // self-loop passes syntax, fails Validate
	f.Add("+ 0 1\n+ 1 0\n")           // duplicate pair
	f.Add("- 99999999999999999999 0") // overflowing endpoint
	f.Add("+ 0 1 2\n")
	f.Fuzz(func(t *testing.T, src string) {
		b, err := ReadMutations(strings.NewReader(src))
		if err != nil {
			return
		}
		// Accepted batches hold only inserts and deletes of non-negative
		// endpoints, and survive semantic validation without panicking.
		for _, m := range b.Muts {
			if (m.Op != msg.OpInsert && m.Op != msg.OpDelete) || m.U < 0 || m.V < 0 {
				t.Fatalf("accepted %+v", m)
			}
		}
		_ = b.Validate(0)
	})
}
