package msg

import "fmt"

// MutOp discriminates streaming graph mutations.
type MutOp uint8

const (
	// OpInsert adds the undirected edge (U, V) to the graph.
	OpInsert MutOp = iota + 1
	// OpDelete removes the undirected edge (U, V) from the graph.
	OpDelete
)

func (op MutOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Mutation is one edge insertion or deletion. Endpoints are vertex ids;
// the pair is unordered (U, V and V, U name the same edge).
type Mutation struct {
	Op   MutOp
	U, V int
}

func (m Mutation) String() string {
	sign := "+"
	if m.Op == OpDelete {
		sign = "-"
	}
	return fmt.Sprintf("%s(%d,%d)", sign, m.U, m.V)
}

// norm returns the unordered endpoint pair with U <= V.
func (m Mutation) norm() [2]int {
	if m.U > m.V {
		return [2]int{m.V, m.U}
	}
	return [2]int{m.U, m.V}
}

// MutationBatch is an ordered group of mutations applied atomically by
// the dynamic recoloring subsystem: either every mutation applies and
// the coloring is repaired once for the whole batch, or (if any mutation
// is inapplicable) none do.
type MutationBatch struct {
	// Seq orders batches within a stream; echoing it back lets clients
	// match responses to requests.
	Seq uint64
	// Muts are applied in order.
	Muts []Mutation
}

// Validate checks the batch semantically against a graph with n
// vertices: ops are known, endpoints are in [0, n) and distinct, and no
// unordered endpoint pair appears twice (a batch touching the same edge
// twice is ambiguous under atomic application — the caller cannot know
// which op wins without replaying the order, so such batches are
// rejected at the boundary). n <= 0 skips the range check.
func (b *MutationBatch) Validate(n int) error {
	seen := make(map[[2]int]int, len(b.Muts))
	for i, m := range b.Muts {
		if m.Op != OpInsert && m.Op != OpDelete {
			return fmt.Errorf("mutation %d: unknown op %d", i, uint8(m.Op))
		}
		if m.U == m.V {
			return fmt.Errorf("mutation %d: self-loop (%d,%d)", i, m.U, m.V)
		}
		if m.U < 0 || m.V < 0 || (n > 0 && (m.U >= n || m.V >= n)) {
			return fmt.Errorf("mutation %d: endpoints (%d,%d) out of range [0,%d)", i, m.U, m.V, n)
		}
		if j, dup := seen[m.norm()]; dup {
			return fmt.Errorf("mutations %d and %d both touch edge (%d,%d)", j, i, m.norm()[0], m.norm()[1])
		}
		seen[m.norm()] = i
	}
	return nil
}
