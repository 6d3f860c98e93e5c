package msg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Stream framing for the multi-process TCP transport (docs/CLUSTER.md).
//
// A frame is [4-byte big-endian length][1-byte kind][payload]; the
// length covers the kind byte and the payload. Frame kinds are opaque
// to this package — the cluster protocol in internal/net assigns them.
// Every payload decoder in this file is strict: a payload that decodes
// successfully but leaves bytes unconsumed is an error, never silently
// accepted, so codec drift between coordinator and node processes is
// caught at the first divergent frame instead of masked.

// FrameKind discriminates frames on a cluster connection.
type FrameKind uint8

// frameHeaderLen is the fixed prefix: u32 length + kind byte.
const frameHeaderLen = 5

// MaxFramePayload is the default payload bound enforced by FrameReader
// (the graph frame of a 10⁸-edge instance fits with headroom). Readers
// can lower it; nothing may raise it, keeping a single adversarial
// frame from forcing an arbitrary allocation.
const MaxFramePayload = 1 << 31

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, kind FrameKind, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = byte(kind)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// FrameReader reads length-prefixed frames from a stream, reusing one
// internal buffer: the payload returned by Next is valid only until the
// following call.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
	max int
}

// NewFrameReader returns a reader enforcing the given payload bound;
// max <= 0 or above MaxFramePayload means MaxFramePayload.
func NewFrameReader(r io.Reader, max int) *FrameReader {
	if max <= 0 || max > MaxFramePayload {
		max = MaxFramePayload
	}
	return &FrameReader{r: bufio.NewReaderSize(r, 1<<16), max: max}
}

// Next reads one frame and returns its kind and payload. An io.EOF at a
// frame boundary is returned as io.EOF; a stream truncated inside a
// frame is io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (FrameKind, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("msg: truncated frame header: %w", err)
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("msg: zero-length frame (missing kind byte)")
	}
	if int64(n-1) > int64(fr.max) {
		return 0, nil, fmt.Errorf("msg: frame payload of %d bytes exceeds the %d-byte bound", n-1, fr.max)
	}
	kind, err := fr.r.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("msg: truncated frame kind: %w", noEOF(err))
	}
	need := int(n - 1)
	if cap(fr.buf) < need {
		fr.buf = make([]byte, need)
	}
	fr.buf = fr.buf[:need]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return 0, nil, fmt.Errorf("msg: truncated frame payload (%d of %d bytes): %w", 0, need, noEOF(err))
	}
	return FrameKind(kind), fr.buf, nil
}

// noEOF maps a bare io.EOF inside a frame to io.ErrUnexpectedEOF so
// callers can keep treating io.EOF as "clean close at a boundary".
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// AppendMessages appends a message block — uvarint count followed by
// the encodings — to buf and returns the result.
func AppendMessages(buf []byte, ms []Message) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ms)))
	for _, m := range ms {
		buf = m.Append(buf)
	}
	return buf
}

// DecodeMessages parses a message block produced by AppendMessages.
// The whole buffer must be consumed: trailing garbage after the last
// message is an error (the length-delimited frame and its content must
// agree exactly), as is a count the remaining bytes cannot satisfy.
func DecodeMessages(buf []byte) ([]Message, error) {
	d := NewDec("msg", buf)
	// Every message encodes to at least 7 bytes (kind, four varints,
	// flags, paint count).
	count := d.Count("message count", 7)
	ms := make([]Message, 0, count)
	for i := 0; i < count; i++ {
		m, used, err := Decode(d.Buf)
		if err != nil {
			return nil, fmt.Errorf("msg: message %d of %d: %w", i, count, err)
		}
		ms = append(ms, m)
		d.Buf = d.Buf[used:]
	}
	if err := d.Finish("message block"); err != nil {
		return nil, err
	}
	return ms, nil
}

// Wire protocol version of the cluster handshake. Bump on any change to
// the frame grammar; coordinator and node refuse mismatched peers.
// Version 2 replaced the round frame's per-delivery (vertex, message)
// pairs with per-shard (sender, message, drop list) records. Version 3
// retired the end-of-run harvest and state frames: every outbox frame
// carries the state its shard's nodes changed in the round. Version 4
// requires every sender's messages in msg.Less order on both sides of
// the wire: node processes no longer sort their inboxes, so an older
// node, which sends its outboxes unsorted, is refused at the handshake
// rather than mid-run.
const HandshakeVersion = 4

// helloMagic opens every handshake so a stray connection (or a peer
// speaking a different protocol entirely) is rejected on the first
// four bytes.
var helloMagic = [4]byte{'d', 'i', 'm', 'a'}

// Hello is the first frame a node process sends on its cluster
// connection: which shard it claims, how many shards it believes the
// run has, and the launch token proving the coordinator invited it.
type Hello struct {
	Shard  int
	Shards int
	Token  uint64
}

// Append appends the handshake encoding to buf.
func (h Hello) Append(buf []byte) []byte {
	buf = append(buf, helloMagic[:]...)
	buf = append(buf, HandshakeVersion)
	buf = binary.AppendUvarint(buf, uint64(h.Shard))
	buf = binary.AppendUvarint(buf, uint64(h.Shards))
	return binary.BigEndian.AppendUint64(buf, h.Token)
}

// DecodeHello parses a handshake, rejecting bad magic, version skew,
// and trailing garbage.
func DecodeHello(buf []byte) (Hello, error) {
	var h Hello
	if len(buf) < len(helloMagic)+1 {
		return h, fmt.Errorf("msg: truncated handshake (%d bytes)", len(buf))
	}
	if [4]byte(buf[:4]) != helloMagic {
		return h, fmt.Errorf("msg: bad handshake magic %q", buf[:4])
	}
	if v := buf[4]; v != HandshakeVersion {
		return h, fmt.Errorf("msg: handshake version %d, want %d", v, HandshakeVersion)
	}
	d := NewDec("msg", buf[5:])
	h.Shard = d.Int("handshake shard index", 1<<31)
	h.Shards = d.Int("handshake shard count", 1<<31)
	if d.Err != nil {
		return h, d.Err
	}
	if len(d.Buf) != 8 {
		return h, fmt.Errorf("msg: handshake token wants 8 bytes, %d remain", len(d.Buf))
	}
	h.Token = binary.BigEndian.Uint64(d.Buf)
	return h, nil
}
