package msg

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x00},
		AppendMessages(nil, sample()),
		bytes.Repeat([]byte{0xab}, 70_000), // spans the bufio buffer
	}
	var w bytes.Buffer
	for i, p := range payloads {
		if err := WriteFrame(&w, FrameKind(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&w, 0)
	for i, p := range payloads {
		kind, got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != FrameKind(i+1) {
			t.Fatalf("frame %d: kind %d, want %d", i, kind, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// frame returns the bytes WriteFrame writes for one frame.
func frame(kind FrameKind, payload []byte) []byte {
	var b bytes.Buffer
	WriteFrame(&b, kind, payload) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

func TestFrameReaderErrors(t *testing.T) {
	whole := frame(7, []byte("payload"))
	cases := []struct {
		name   string
		stream []byte
		want   string // substring of the error; "" means io.ErrUnexpectedEOF
	}{
		{"truncated header", whole[:3], ""},
		{"missing kind", whole[:4], ""},
		{"truncated payload", whole[:len(whole)-2], ""},
		{"zero length", []byte{0, 0, 0, 0}, "zero-length"},
		{"oversized", frame(1, bytes.Repeat([]byte{1}, 64)), "exceeds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fr := NewFrameReader(bytes.NewReader(c.stream), 32)
			_, _, err := fr.Next()
			if err == nil {
				t.Fatal("malformed stream accepted")
			}
			if c.want == "" {
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
				}
			} else if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want %q", err, c.want)
			}
		})
	}
}

// TestFrameReaderReusesBuffer pins the documented aliasing rule: the
// payload returned by Next is only valid until the following call.
func TestFrameReaderReusesBuffer(t *testing.T) {
	stream := append(frame(1, []byte{0xaa, 0xbb}), frame(2, []byte{0xcc, 0xdd})...)
	fr := NewFrameReader(bytes.NewReader(stream), 0)
	_, first, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if first[0] != 0xcc {
		t.Fatal("payload buffer was not reused; the aliasing contract changed silently")
	}
}

func TestDecodeMessagesRoundTrip(t *testing.T) {
	for _, ms := range [][]Message{nil, sample()[:1], sample()} {
		buf := AppendMessages(nil, ms)
		got, err := DecodeMessages(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ms) {
			t.Fatalf("decoded %d messages, want %d", len(got), len(ms))
		}
		for i := range ms {
			if !Equal(ms[i], got[i]) {
				t.Fatalf("message %d: %v != %v", i, got[i], ms[i])
			}
		}
	}
}

func TestDecodeMessagesRejectsTrailingGarbage(t *testing.T) {
	buf := AppendMessages(nil, sample())
	for _, tail := range [][]byte{{0x00}, {0xff, 0xff}} {
		if _, err := DecodeMessages(append(append([]byte(nil), buf...), tail...)); err == nil {
			t.Fatalf("trailing %x accepted", tail)
		} else if !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("trailing %x: error %v does not name the trailing bytes", tail, err)
		}
	}
	// A count larger than the remaining bytes could satisfy is rejected
	// before allocation.
	if _, err := DecodeMessages([]byte{0xff, 0xff, 0x03}); err == nil {
		t.Fatal("implausible count accepted")
	}
	if _, err := DecodeMessages(nil); err == nil {
		t.Fatal("empty buffer accepted (count is mandatory)")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{},
		{Shard: 3, Shards: 7, Token: 0xdeadbeefcafe},
		{Shard: 1 << 20, Shards: 1 << 20, Token: ^uint64(0)},
	} {
		got, err := DecodeHello(h.Append(nil))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: %+v != %+v", got, h)
		}
	}
}

func TestDecodeHelloErrors(t *testing.T) {
	good := Hello{Shard: 2, Shards: 4, Token: 99}.Append(nil)
	bad := map[string][]byte{
		"empty":            {},
		"short":            good[:4],
		"bad magic":        append([]byte("mima"), good[4:]...),
		"version skew":     append(append([]byte{}, good[:4]...), append([]byte{HandshakeVersion + 1}, good[5:]...)...),
		"truncated token":  good[:len(good)-1],
		"trailing garbage": append(append([]byte{}, good...), 0x00),
	}
	for name, buf := range bad {
		if _, err := DecodeHello(buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzFrameReader feeds arbitrary streams to the framer: it must never
// panic, must consume any stream it accepts frame-by-frame, and every
// accepted frame must re-encode to the bytes it was cut from.
func FuzzFrameReader(f *testing.F) {
	var stream []byte
	for _, m := range sample() {
		stream = append(stream, frame(4, AppendMessages(nil, []Message{m}))...)
	}
	f.Add(stream)
	f.Add(frame(1, nil))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add(Hello{Shard: 1, Shards: 2, Token: 3}.Append(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), 1<<20)
		for {
			kind, payload, err := fr.Next()
			if err != nil {
				if err == io.EOF && len(data) == 0 {
					return
				}
				return
			}
			again := frame(kind, payload)
			if len(again) != frameHeaderLen+len(payload) {
				t.Fatalf("re-encoded frame is %d bytes, want %d", len(again), frameHeaderLen+len(payload))
			}
			if !bytes.HasPrefix(data, again) {
				t.Fatalf("accepted frame does not re-encode to its input prefix")
			}
			data = data[len(again):]
		}
	})
}

// FuzzDecodeMessages seeds the block decoder with the same message
// corpus the single-message fuzzer uses: any block it accepts must
// round-trip exactly and account for every input byte.
func FuzzDecodeMessages(f *testing.F) {
	f.Add(AppendMessages(nil, sample()))
	for _, m := range sample() {
		f.Add(AppendMessages(nil, []Message{m}))
	}
	f.Add(AppendMessages(nil, nil))
	f.Add([]byte{0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := DecodeMessages(data)
		if err != nil {
			return
		}
		// Re-encoding is canonical; decoding may accept padded varints,
		// so the round-trip check is semantic, as in FuzzDecode.
		again, err := DecodeMessages(AppendMessages(nil, ms))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(ms) {
			t.Fatalf("round trip count %d, want %d", len(again), len(ms))
		}
		for i := range ms {
			if !Equal(ms[i], again[i]) {
				t.Fatalf("message %d: %v != %v", i, again[i], ms[i])
			}
		}
	})
}

// FuzzDecodeHello: the handshake decoder must reject everything that is
// not exactly a current-version hello, and round-trip what it accepts.
func FuzzDecodeHello(f *testing.F) {
	f.Add(Hello{}.Append(nil))
	f.Add(Hello{Shard: 9, Shards: 16, Token: 0x0102030405060708}.Append(nil))
	f.Add([]byte("dima"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			return
		}
		again, err := DecodeHello(h.Append(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again != h {
			t.Fatalf("round trip: %+v != %+v", again, h)
		}
	})
}
