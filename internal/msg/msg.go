// Package msg defines the wire messages exchanged by dima protocol nodes
// and a compact binary codec for them.
//
// The paper's model is synchronous local broadcast: every message a node
// sends in a communication round is heard by all of its neighbors. The
// To field is therefore an *addressee*, not a routing constraint —
// receivers use it to split their inbox into messages "for me" and
// overheard messages, exactly as the L and R states of the automaton
// require (and the strong-coloring algorithm depends on overhearing).
package msg

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// Kind discriminates message types.
type Kind uint8

const (
	// KindInvite is sent by a node in the I state: From proposes to
	// color Edge (an edge id in Algorithm 1, an arc id in Algorithm 2)
	// with Color, addressed to neighbor To.
	KindInvite Kind = iota + 1
	// KindResponse is sent by a node in the R state: the invitation with
	// the ids reversed, accepting the proposal.
	KindResponse
	// KindClaim is the first exchange sub-round of the strong-coloring
	// algorithm: a tentative (edge, color) pair announced by both
	// endpoints for same-round conflict detection.
	KindClaim
	// KindDecide is the second exchange sub-round: each endpoint's
	// keep/drop verdict on its claim after local conflict resolution.
	KindDecide
	// KindUpdate carries newly finalized (edge, color) assignments — the
	// E (exchange) state broadcast that keeps one-hop color knowledge
	// current.
	KindUpdate
	// KindAck is the recovery layer's control message, outside the
	// paper's reliable-delivery model. Three shapes share the kind:
	// Keep == true acknowledges receipt of a Response (or an adopted
	// assignment) for Edge; Keep == false with Color >= 0 is a negative
	// acknowledgement telling the addressee to revert its one-sided
	// assignment of Color to Edge; Keep == false with Color == -1 is a
	// status probe asking the addressee whether it believes Edge colored.
	KindAck
)

// Broadcast is the To value for messages with no specific addressee.
const Broadcast = -1

// KindCount is one past the largest Kind value — the size for arrays
// indexed directly by Kind (index 0, below KindInvite, stays unused).
const KindCount = int(KindAck) + 1

func (k Kind) String() string {
	switch k {
	case KindInvite:
		return "invite"
	case KindResponse:
		return "response"
	case KindClaim:
		return "claim"
	case KindDecide:
		return "decide"
	case KindUpdate:
		return "update"
	case KindAck:
		return "ack"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Paint is one (edge, color) assignment inside a KindUpdate message.
type Paint struct {
	Edge  int32
	Color int32
}

// Message is the single concrete message type used by all protocols.
// Unused fields are zero; Edge and Color are -1 when absent. Vertex,
// item and color values are int32 — the wire decoder rejects anything
// wider — so that a message is 40 bytes: engines copy one per delivery.
// The fields are ordered to leave no padding.
type Message struct {
	Kind  Kind
	Keep  bool  // KindDecide: endpoint's verdict; KindAck: ack vs nack/probe
	From  int32 // sender vertex
	To    int32 // addressee, or Broadcast
	Edge  int32 // EdgeID (Algorithm 1) or ArcID (Algorithm 2)
	Color int32
	Seq   uint32 // retransmission sequence number; 0 for first sends
	// Port is the receiver's incidence position of From: at receiver v,
	// Neighbors(v)[Port] == From and IncidentEdges(v)[Port] is the edge
	// the message arrived on — the port-numbering model's arrival port.
	// Engines stamp it on every delivery. It is not encoded, not
	// compared by Less or Equal, and meaningless on a sent message.
	Port int32
	// The KindUpdate paints, read through Paints and set through
	// SetPaints: a pointer and a count take 12 bytes where a slice
	// header would take 24.
	npaints int32
	paints  *Paint
}

// Paints returns the finalized assignments a KindUpdate message
// carries. The slice aliases the sender's storage (see SetPaints), so
// holders must not write through it; its capacity is its length.
func (m Message) Paints() []Paint {
	return unsafe.Slice(m.paints, m.npaints)
}

// SetPaints makes m carry p. m aliases p's backing array rather than
// copying it, as a slice field would: every copy of m shares the paints,
// so the sender must never rewrite paints it has sent.
func (m *Message) SetPaints(p []Paint) {
	if len(p) == 0 {
		m.paints, m.npaints = nil, 0
		return
	}
	m.paints, m.npaints = unsafe.SliceData(p), int32(len(p))
}

func (m Message) String() string {
	seq := ""
	if m.Seq > 0 {
		seq = fmt.Sprintf(" seq=%d", m.Seq)
	}
	switch m.Kind {
	case KindDecide, KindAck:
		return fmt.Sprintf("%s{%d->%d e%d c%d keep=%v%s}", m.Kind, m.From, m.To, m.Edge, m.Color, m.Keep, seq)
	case KindUpdate:
		return fmt.Sprintf("%s{%d->%d %v%s}", m.Kind, m.From, m.To, m.Paints(), seq)
	default:
		return fmt.Sprintf("%s{%d->%d e%d c%d%s}", m.Kind, m.From, m.To, m.Edge, m.Color, seq)
	}
}

// Compare orders messages canonically, returning -1, 0 or +1 as a
// sorts before, equal to or after b. It compares every field but Port,
// so the order is total: inboxes arrive at protocol logic in this
// order, and any pair of distinct messages — including two Decide or
// Update messages from the same sender differing only in Keep or
// Paints — must sort the same way under every engine for the
// cross-engine equivalence to hold. From is the first key, which is
// what lets an engine sort each outbox instead of each inbox.
func Compare(a, b Message) int {
	// Keep sorts false before true; Paints compare lexicographically,
	// a strict prefix sorting first.
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Kind, b.Kind),
		cmp.Compare(a.To, b.To), cmp.Compare(a.Edge, b.Edge),
		cmp.Compare(a.Color, b.Color), cmp.Compare(a.Seq, b.Seq),
		cmp.Compare(bit(a.Keep), bit(b.Keep)),
		slices.CompareFunc(a.Paints(), b.Paints(), func(p, q Paint) int {
			return cmp.Or(cmp.Compare(p.Edge, q.Edge), cmp.Compare(p.Color, q.Color))
		}))
}

// bit is b as 0 or 1.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Less reports whether a sorts before b in the Compare order.
func Less(a, b Message) bool {
	return Compare(a, b) < 0
}

// Size returns the encoded size of m in bytes without encoding it.
func (m Message) Size() int {
	n := 1 + // kind byte
		varintLen(int64(m.From)) + varintLen(int64(m.To)) +
		varintLen(int64(m.Edge)) + varintLen(int64(m.Color)) +
		1 + // flags byte
		uvarintLen(uint64(m.npaints))
	if m.Seq > 0 {
		n += uvarintLen(uint64(m.Seq))
	}
	for _, p := range m.Paints() {
		n += varintLen(int64(p.Edge)) + varintLen(int64(p.Color))
	}
	return n
}

// varintLen returns the zig-zag varint encoding length of v.
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// uvarintLen returns the unsigned varint encoding length of v: one byte
// per started group of 7 significant bits, and one byte for zero.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// Flag bits of the encoded flags byte.
const (
	flagKeep = 1 << 0 // Keep is true
	flagSeq  = 1 << 1 // a uvarint Seq follows the flags byte
)

// Append appends the binary encoding of m to buf and returns the result.
// The format is: kind byte, then varint-encoded From, To, Edge, Color
// (zig-zag for the possibly-negative fields), a flags byte, an optional
// uvarint sequence number (flagSeq, present only when Seq > 0 so that
// first-transmission encodings are identical to the pre-recovery wire
// format), and a length-prefixed paint list.
func (m Message) Append(buf []byte) []byte {
	buf = append(buf, byte(m.Kind))
	buf = binary.AppendVarint(buf, int64(m.From))
	buf = binary.AppendVarint(buf, int64(m.To))
	buf = binary.AppendVarint(buf, int64(m.Edge))
	buf = binary.AppendVarint(buf, int64(m.Color))
	var flags byte
	if m.Keep {
		flags |= flagKeep
	}
	if m.Seq > 0 {
		flags |= flagSeq
	}
	buf = append(buf, flags)
	if m.Seq > 0 {
		buf = binary.AppendUvarint(buf, uint64(m.Seq))
	}
	buf = binary.AppendUvarint(buf, uint64(m.npaints))
	for _, p := range m.Paints() {
		buf = binary.AppendVarint(buf, int64(p.Edge))
		buf = binary.AppendVarint(buf, int64(p.Color))
	}
	return buf
}

// Decode parses one message from buf, returning the message and the
// number of bytes consumed. Every vertex, item and color value must fit
// in an int32; a wider varint is an error, never truncated. The paints
// of an Update land in a fresh slice, which the message owns.
func Decode(buf []byte) (Message, int, error) { return decode(buf, nil) }

// DecodeAppend is Decode with the paints appended to *slab: a caller
// decoding many messages at a time allocates only when the slab grows.
// The message aliases the slab, so it is valid until the caller
// rewrites the slab's contents (a slab that grows leaves earlier
// messages on the old array, unchanged).
func DecodeAppend(buf []byte, slab *[]Paint) (Message, int, error) { return decode(buf, slab) }

func decode(buf []byte, slab *[]Paint) (Message, int, error) {
	var m Message
	if len(buf) == 0 {
		return m, 0, fmt.Errorf("msg: empty buffer")
	}
	m.Kind = Kind(buf[0])
	if m.Kind < KindInvite || m.Kind > KindAck {
		return m, 0, fmt.Errorf("msg: unknown kind %d", buf[0])
	}
	pos := 1
	readInt := func() (int32, error) {
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("msg: truncated varint at offset %d", pos)
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return 0, fmt.Errorf("msg: varint %d at offset %d outside int32", v, pos)
		}
		pos += n
		return int32(v), nil
	}
	var err error
	if m.From, err = readInt(); err != nil {
		return m, 0, err
	}
	if m.To, err = readInt(); err != nil {
		return m, 0, err
	}
	if m.Edge, err = readInt(); err != nil {
		return m, 0, err
	}
	if m.Color, err = readInt(); err != nil {
		return m, 0, err
	}
	if pos >= len(buf) {
		return m, 0, fmt.Errorf("msg: truncated flags byte")
	}
	flags := buf[pos]
	pos++
	if flags&^byte(flagKeep|flagSeq) != 0 {
		return m, 0, fmt.Errorf("msg: unknown flag bits %#x", flags)
	}
	m.Keep = flags&flagKeep != 0
	if flags&flagSeq != 0 {
		seq, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return m, 0, fmt.Errorf("msg: truncated sequence number")
		}
		if seq == 0 || seq > uint64(^uint32(0)) {
			return m, 0, fmt.Errorf("msg: implausible sequence number %d", seq)
		}
		pos += n
		m.Seq = uint32(seq)
	}
	count, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return m, 0, fmt.Errorf("msg: truncated paint count")
	}
	pos += n
	// Each paint encodes to at least two bytes (one per varint), so any
	// count above half the remaining buffer cannot be satisfied; reject
	// it before allocating, keeping adversarial buffers cheap.
	if count > uint64(len(buf)-pos)/2 {
		return m, 0, fmt.Errorf("msg: implausible paint count %d for %d remaining bytes", count, len(buf)-pos)
	}
	if count > 0 {
		var ps []Paint
		if slab == nil {
			ps = make([]Paint, count)
		} else {
			k := len(*slab)
			*slab = slices.Grow(*slab, int(count))[:k+int(count)]
			ps = (*slab)[k:]
		}
		for i := range ps {
			if ps[i].Edge, err = readInt(); err != nil {
				return m, 0, err
			}
			if ps[i].Color, err = readInt(); err != nil {
				return m, 0, err
			}
		}
		m.SetPaints(ps)
	}
	return m, pos, nil
}

// Equal reports whether two messages are identical, including paints.
// Port is not compared: it is the receiver's view, not message content.
func Equal(a, b Message) bool {
	if a.Kind != b.Kind || a.From != b.From || a.To != b.To ||
		a.Edge != b.Edge || a.Color != b.Color || a.Keep != b.Keep ||
		a.Seq != b.Seq || a.npaints != b.npaints {
		return false
	}
	ap, bp := a.Paints(), b.Paints()
	for i := range ap {
		if ap[i] != bp[i] {
			return false
		}
	}
	return true
}
