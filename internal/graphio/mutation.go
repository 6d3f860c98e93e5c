package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"dima/internal/msg"
)

// Mutation lists are the text form of a msg.MutationBatch, meant for
// CLI composition: one mutation per line, "+ u v" for
// an insertion and "- u v" for a deletion (0-indexed endpoints), with
// '#' comments and blank lines ignored. An optional "batch <seq>" line
// sets the batch sequence number.

// ReadMutations parses the text mutation-list format. Structural checks
// only (syntax, non-negative endpoints); callers apply
// msg.MutationBatch.Validate against their graph.
func ReadMutations(r io.Reader) (*msg.MutationBatch, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	b := &msg.MutationBatch{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "batch":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graphio: line %d: malformed batch line", lineNo)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &b.Seq); err != nil {
				return nil, fmt.Errorf("graphio: line %d: bad batch sequence %q", lineNo, fields[1])
			}
		case "+", "-":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graphio: line %d: malformed mutation line", lineNo)
			}
			var u, v int
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &u, &v); err != nil {
				return nil, fmt.Errorf("graphio: line %d: bad endpoints", lineNo)
			}
			if u < 0 || v < 0 {
				return nil, fmt.Errorf("graphio: line %d: negative endpoint", lineNo)
			}
			op := msg.OpInsert
			if fields[0] == "-" {
				op = msg.OpDelete
			}
			b.Muts = append(b.Muts, msg.Mutation{Op: op, U: u, V: v})
		default:
			return nil, fmt.Errorf("graphio: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}
