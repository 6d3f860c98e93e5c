package msg

import (
	"encoding/binary"
	"fmt"
)

// Dec is the strict cursor every binary payload past the message codec
// decodes through: the cluster frames (internal/net), the node state
// and options blobs (internal/core), and the handshake and control
// frames in this package. It latches the first decode error; after it,
// every read returns zero and consumes nothing, so a multi-field parser
// reads its fields in a straight line and checks Err once. Every error
// text starts with the prefix given to NewDec (the decoding package's
// name), e.g. "net: truncated record sender".
type Dec struct {
	// Buf holds the bytes not yet consumed. Parsers that embed another
	// codec (msg.Decode, a graph section) read from it and reslice it.
	Buf []byte
	// Err is the first decode error. Parsers built on Dec may latch an
	// error of their own, but only while Err is nil.
	Err error
	pkg string
}

// NewDec returns a cursor over buf whose errors are prefixed "pkg: ".
func NewDec(pkg string, buf []byte) Dec { return Dec{Buf: buf, pkg: pkg} }

// Fail latches a formatted error, prefixed like the cursor's own,
// unless an earlier error is already latched.
func (d *Dec) Fail(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf(d.pkg+": "+format, args...)
	}
}

// Uvarint reads one uvarint.
func (d *Dec) Uvarint(what string) uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.Buf)
	if n <= 0 {
		d.Fail("truncated %s", what)
		return 0
	}
	d.Buf = d.Buf[n:]
	return v
}

// Int reads a uvarint and rejects one above max, so the value is a
// valid non-negative int (and, with a tighter max, a valid vertex id,
// round number or the like).
func (d *Dec) Int(what string, max uint64) int {
	v := d.Uvarint(what)
	if d.Err == nil && v > max {
		d.Fail("%s %d out of range [0, %d]", what, v, max)
		return 0
	}
	return int(v)
}

// Count reads the uvarint element count of a section whose elements
// each take at least size bytes, and rejects a count the bytes left
// cannot hold, before the caller allocates for it.
func (d *Dec) Count(what string, size int) int {
	v := d.Uvarint(what)
	if d.Err == nil && v > uint64(len(d.Buf)/size) {
		d.Fail("implausible %s %d for %d remaining bytes", what, v, len(d.Buf))
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (d *Dec) Byte(what string) byte {
	if d.Err != nil {
		return 0
	}
	if len(d.Buf) == 0 {
		d.Fail("truncated %s", what)
		return 0
	}
	b := d.Buf[0]
	d.Buf = d.Buf[1:]
	return b
}

// Bytes reads a uvarint length and that many bytes. The result aliases
// the payload.
func (d *Dec) Bytes(what string) []byte {
	if d.Err != nil {
		return nil
	}
	n, used := binary.Uvarint(d.Buf)
	if used <= 0 {
		d.Fail("truncated %s length", what)
		return nil
	}
	d.Buf = d.Buf[used:]
	if n > uint64(len(d.Buf)) {
		d.Fail("%s of %d bytes exceeds the %d remaining", what, n, len(d.Buf))
		return nil
	}
	b := d.Buf[:n:n]
	d.Buf = d.Buf[n:]
	return b
}

// Finish returns the latched error, or an error naming the trailing
// bytes when the payload was not consumed exactly: a payload that
// parses but leaves bytes over means the two sides' codecs disagree.
func (d *Dec) Finish(what string) error {
	if d.Err == nil && len(d.Buf) != 0 {
		d.Fail("%d trailing bytes after %s", len(d.Buf), what)
	}
	return d.Err
}
