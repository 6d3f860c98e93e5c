package msg

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// withPaints returns m carrying ps.
func withPaints(m Message, ps ...Paint) Message {
	m.SetPaints(ps)
	return m
}

func sample() []Message {
	return []Message{
		{Kind: KindInvite, From: 3, To: 7, Edge: 12, Color: 0},
		{Kind: KindResponse, From: 7, To: 3, Edge: 12, Color: 0},
		{Kind: KindClaim, From: 3, To: Broadcast, Edge: 12, Color: 5},
		{Kind: KindDecide, From: 3, To: Broadcast, Edge: 12, Color: 5, Keep: true},
		{Kind: KindDecide, From: 3, To: Broadcast, Edge: 12, Color: 5, Keep: false},
		withPaints(Message{Kind: KindUpdate, From: 9, To: Broadcast, Edge: -1, Color: -1},
			Paint{Edge: 1, Color: 2}, Paint{Edge: 40, Color: 0}),
		{Kind: KindUpdate, From: 0, To: Broadcast, Edge: -1, Color: -1},
		{Kind: KindResponse, From: 7, To: 3, Edge: 12, Color: 0, Seq: 2},
		{Kind: KindAck, From: 3, To: 7, Edge: 12, Color: 0, Keep: true},
		{Kind: KindAck, From: 3, To: 7, Edge: 12, Color: 5, Keep: false, Seq: 1},
		{Kind: KindAck, From: 3, To: 7, Edge: 12, Color: -1, Keep: false},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, m := range sample() {
		buf := m.Append(nil)
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if n != len(buf) {
			t.Fatalf("%v: consumed %d of %d bytes", m, n, len(buf))
		}
		if !Equal(m, got) {
			t.Fatalf("round trip: sent %v got %v", m, got)
		}
	}
}

func TestRoundTripConcatenated(t *testing.T) {
	msgs := sample()
	var buf []byte
	for _, m := range msgs {
		buf = m.Append(buf)
	}
	pos := 0
	for i, want := range msgs {
		got, n, err := Decode(buf[pos:])
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !Equal(want, got) {
			t.Fatalf("message %d: %v != %v", i, want, got)
		}
		pos += n
	}
	if pos != len(buf) {
		t.Fatalf("leftover bytes: %d of %d", len(buf)-pos, len(buf))
	}
}

// TestDecodeAppendUsesTheSlab: DecodeAppend decodes what Decode does,
// appends every Update's paints to the slab in message order, and
// leaves messages decoded before the slab grew intact.
func TestDecodeAppendUsesTheSlab(t *testing.T) {
	msgs := append(sample(), sample()...)
	var buf []byte
	for _, m := range msgs {
		buf = m.Append(buf)
	}
	slab := make([]Paint, 0, 1) // too small: the slab must grow
	var got []Message
	for pos := 0; pos < len(buf); {
		m, n, err := DecodeAppend(buf[pos:], &slab)
		if err != nil {
			t.Fatal(err)
		}
		got, pos = append(got, m), pos+n
	}
	var paints []Paint
	for i, m := range msgs {
		if !Equal(m, got[i]) {
			t.Fatalf("message %d: %v != %v", i, m, got[i])
		}
		paints = append(paints, m.Paints()...)
	}
	if len(slab) != len(paints) || len(paints) == 0 {
		t.Fatalf("slab holds %d paints, the messages %d", len(slab), len(paints))
	}
	for i := range paints {
		if slab[i] != paints[i] {
			t.Fatalf("slab paint %d is %v, want %v", i, slab[i], paints[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("decoded empty buffer")
	}
	if _, _, err := Decode([]byte{0}); err == nil {
		t.Fatal("decoded kind 0")
	}
	if _, _, err := Decode([]byte{99}); err == nil {
		t.Fatal("decoded unknown kind")
	}
	// Truncate a valid encoding at every prefix length: must error, never
	// panic, never succeed. Both a paint-carrying and a seq-carrying
	// message exercise every decoder branch.
	for _, i := range []int{5, 9} {
		full := sample()[i].Append(nil)
		for cut := 0; cut < len(full); cut++ {
			if _, _, err := Decode(full[:cut]); err == nil {
				t.Fatalf("decoded truncated buffer of %d/%d bytes", cut, len(full))
			}
		}
	}
}

// The paint-count guard must bound the count by the bytes actually
// remaining (each paint takes >= 2 bytes), not by the whole buffer
// length: an adversarial count between the two used to pass the guard
// and reach the paint loop.
func TestDecodeAdversarialPaintCount(t *testing.T) {
	// A minimal update header: kind, from, to, edge, color, flags.
	header := []byte{byte(KindUpdate), 0, 0, 1, 1, 0}
	// Claim 4 paints with only 3 bytes remaining: 4 <= len(buf) (old
	// guard passes) but 4 > 3/2 (new guard must reject).
	buf := append(append([]byte{}, header...), 4, 0, 0, 0)
	if _, _, err := Decode(buf); err == nil {
		t.Fatal("decoded message whose paint count exceeds the remaining bytes")
	}
	// The same shape with a satisfiable count must still decode.
	ok := append(append([]byte{}, header...), 2, 0, 0, 0, 0)
	m, n, err := Decode(ok)
	if err != nil || n != len(ok) || len(m.Paints()) != 2 {
		t.Fatalf("valid 2-paint message failed: %v n=%d err=%v", m, n, err)
	}
	// A huge count must be rejected without allocating.
	huge := append(append([]byte{}, header...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, _, err := Decode(huge); err == nil {
		t.Fatal("decoded message with a huge paint count")
	}
}

// TestMessageIs40Bytes pins the message width: engines copy one message
// per delivery into their inbox arenas, so every byte is delivery cost.
func TestMessageIs40Bytes(t *testing.T) {
	if sz := unsafe.Sizeof(Message{}); sz > 40 {
		t.Fatalf("msg.Message is %d bytes, want at most 40", sz)
	}
}

// int32Edges are the values on either side of the int32 range: 2^31-1
// and -2^31 fit, 2^31 and -2^31-1 do not.
var int32Edges = []int64{math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1}

// rawUpdate hand-encodes an update whose From, To, Edge, Color and one
// paint's Edge and Color are vals, in that order: Append cannot encode
// a value outside int32.
func rawUpdate(vals [6]int64) []byte {
	buf := []byte{byte(KindUpdate)}
	for _, v := range vals[:4] {
		buf = binary.AppendVarint(buf, v)
	}
	buf = append(buf, 0, 1) // no flags, one paint
	return binary.AppendVarint(binary.AppendVarint(buf, vals[4]), vals[5])
}

// TestDecodeInt32Range: a varint outside int32 in any of From, To,
// Edge, Color or a paint is an error naming it, never a silent
// truncation, and the int32 extremes decode exactly.
func TestDecodeInt32Range(t *testing.T) {
	for field := 0; field < 6; field++ {
		for _, v := range int32Edges {
			vals := [6]int64{1, 2, 3, 4, 5, 6}
			vals[field] = v
			m, _, err := Decode(rawUpdate(vals))
			if v != int64(int32(v)) {
				if err == nil || !strings.Contains(err.Error(), "outside int32") {
					t.Errorf("field %d = %d: got %v, %v; want an int32 range error", field, v, m, err)
				}
				continue
			}
			p := m.Paints()
			if err != nil || len(p) != 1 {
				t.Fatalf("field %d = %d: %v", field, v, err)
			}
			got := [6]int64{int64(m.From), int64(m.To), int64(m.Edge), int64(m.Color), int64(p[0].Edge), int64(p[0].Color)}
			if got != vals {
				t.Errorf("field %d = %d decoded as %v", field, v, got)
			}
		}
	}
}

func TestSize(t *testing.T) {
	for _, m := range sample() {
		if m.Size() != len(m.Append(nil)) {
			t.Fatalf("Size mismatch for %v", m)
		}
	}
}

// TestSizeAtVarintBoundaries checks Size against the encoding at every
// varint length boundary: each signed field (zig-zag encoded) and each
// paint field set to 0, 127, 128, 2^14-1, 2^14, MaxInt32 and their
// negatives, and Seq (unsigned, only encoded when nonzero) at 0, 1,
// 127, 128, 2^14-1, 2^14 and MaxUint32.
func TestSizeAtVarintBoundaries(t *testing.T) {
	var values []int32
	for _, v := range []int32{0, 1, 63, 64, 127, 128, 1<<14 - 1, 1 << 14, math.MaxInt32} {
		values = append(values, v, -v)
	}
	values = append(values, math.MinInt32)
	check := func(m Message) {
		t.Helper()
		if got, want := m.Size(), len(m.Append(nil)); got != want {
			t.Fatalf("Size %d, encoding %d bytes: %+v", got, want, m)
		}
	}
	for _, v := range values {
		for field := 0; field < 6; field++ {
			m := Message{Kind: KindUpdate, From: 1, To: Broadcast, Edge: -1, Color: -1}
			switch field {
			case 0:
				m.From = v
			case 1:
				m.To = v
			case 2:
				m.Edge = v
			case 3:
				m.Color = v
			case 4:
				m.SetPaints([]Paint{{Edge: v, Color: 0}})
			case 5:
				m.SetPaints([]Paint{{Edge: 3, Color: v}, {Edge: v, Color: v}})
			}
			check(m)
		}
	}
	for _, seq := range []uint32{0, 1, 127, 128, 1<<14 - 1, 1 << 14, math.MaxUint32} {
		check(Message{Kind: KindResponse, From: 2, To: 5, Edge: 9, Color: 4, Seq: seq})
	}
	// 127 and 128 paints put the paint count on its boundary.
	for _, k := range []int{127, 128} {
		check(withPaints(Message{Kind: KindUpdate, From: 1, To: Broadcast, Edge: -1, Color: -1}, make([]Paint, k)...))
	}
}

func TestLessIsStrictWeakOrder(t *testing.T) {
	msgs := sample()
	for _, a := range msgs {
		if Less(a, a) {
			t.Fatalf("Less(%v, %v) true", a, a)
		}
		for _, b := range msgs {
			if Less(a, b) && Less(b, a) {
				t.Fatalf("Less not antisymmetric on %v, %v", a, b)
			}
		}
	}
}

// Less must be a TOTAL order: any two distinct messages compare one way
// or the other, so sort.Slice cannot leave engine-dependent tie orders.
// The regression cases are the field pairs the old comparator ignored:
// Keep, Paints, and Seq.
func TestLessIsTotal(t *testing.T) {
	pairs := [][2]Message{
		{{Kind: KindDecide, From: 3, Edge: 5, Color: 1, Keep: false},
			{Kind: KindDecide, From: 3, Edge: 5, Color: 1, Keep: true}},
		{withPaints(Message{Kind: KindUpdate, From: 3, Edge: -1, Color: -1}, Paint{1, 2}),
			withPaints(Message{Kind: KindUpdate, From: 3, Edge: -1, Color: -1}, Paint{1, 3})},
		{withPaints(Message{Kind: KindUpdate, From: 3, Edge: -1, Color: -1}, Paint{1, 2}),
			withPaints(Message{Kind: KindUpdate, From: 3, Edge: -1, Color: -1}, Paint{1, 2}, Paint{4, 0})},
		{{Kind: KindResponse, From: 3, To: 1, Edge: 5, Color: 1},
			{Kind: KindResponse, From: 3, To: 1, Edge: 5, Color: 1, Seq: 1}},
		{{Kind: KindAck, From: 3, To: 1, Edge: 5, Color: 1, Keep: true},
			{Kind: KindAck, From: 3, To: 1, Edge: 5, Color: 1, Keep: true, Seq: 2}},
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if Equal(a, b) {
			t.Fatalf("test pair not distinct: %v", a)
		}
		if Less(a, b) == Less(b, a) {
			t.Fatalf("Less cannot order %v and %v", a, b)
		}
	}
	// All sample messages are pairwise distinct and must be ordered.
	msgs := sample()
	for i, a := range msgs {
		for _, b := range msgs[i+1:] {
			if !Equal(a, b) && Less(a, b) == Less(b, a) {
				t.Fatalf("Less cannot order %v and %v", a, b)
			}
		}
	}
}

func TestLessOrdersByFromFirst(t *testing.T) {
	a := Message{Kind: KindUpdate, From: 1}
	b := Message{Kind: KindInvite, From: 2}
	if !Less(a, b) || Less(b, a) {
		t.Fatal("From must dominate ordering")
	}
}

func TestSortStable(t *testing.T) {
	msgs := []Message{
		{Kind: KindResponse, From: 2, Edge: 1},
		{Kind: KindInvite, From: 2, Edge: 9},
		{Kind: KindInvite, From: 0, Edge: 3},
	}
	sort.Slice(msgs, func(i, j int) bool { return Less(msgs[i], msgs[j]) })
	if msgs[0].From != 0 || msgs[1].Kind != KindInvite || msgs[2].Kind != KindResponse {
		t.Fatalf("sorted order wrong: %v", msgs)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindInvite: "invite", KindResponse: "response", KindClaim: "claim",
		KindDecide: "decide", KindUpdate: "update", KindAck: "ack",
		Kind(77): "kind(77)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(kind uint8, from, to, edge, color int16, keep bool, seq uint32, paintsRaw []int16) bool {
		k := Kind(kind%6) + KindInvite
		m := Message{
			Kind: k, From: int32(from), To: int32(to),
			Edge: int32(edge), Color: int32(color), Keep: keep, Seq: seq,
		}
		var ps []Paint
		for i := 0; i+1 < len(paintsRaw); i += 2 {
			ps = append(ps, Paint{Edge: int32(paintsRaw[i]), Color: int32(paintsRaw[i+1])})
		}
		m.SetPaints(ps)
		got, n, err := Decode(m.Append(nil))
		return err == nil && n == m.Size() && Equal(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Fuzz-like robustness check: Decode must never panic on arbitrary bytes.
func TestQuickDecodeNoPanic(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func FuzzDecode(f *testing.F) {
	for _, m := range sample() {
		f.Add(m.Append(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	for field := 0; field < 6; field++ {
		for _, v := range int32Edges {
			vals := [6]int64{1, 2, 3, 4, 5, 6}
			vals[field] = v
			f.Add(rawUpdate(vals))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Round-trip: re-encoding the decoded message must decode to the
		// same message.
		again, n2, err := Decode(m.Append(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != m.Size() || !Equal(m, again) {
			t.Fatalf("round trip mismatch: %v vs %v", m, again)
		}
	})
}
