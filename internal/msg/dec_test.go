package msg

import (
	"strings"
	"testing"
)

// TestDec drives each cursor operation into each of its failure modes
// and checks the latched error text.
func TestDec(t *testing.T) {
	for _, c := range []struct {
		name string
		buf  []byte
		read func(d *Dec)
		want string // substring of the error; "" means no error
	}{
		{"uvarint", []byte{0x05}, func(d *Dec) { d.Uvarint("round") }, ""},
		{"truncated uvarint", []byte{0x80}, func(d *Dec) { d.Uvarint("round") }, "x: truncated round"},
		{"truncated int", nil, func(d *Dec) { d.Int("vertex", 9) }, "x: truncated vertex"},
		{"int at bound", []byte{0x09}, func(d *Dec) { d.Int("vertex", 9) }, ""},
		{"int overflow", []byte{0x0a}, func(d *Dec) { d.Int("vertex", 9) }, "x: vertex 10 out of range [0, 9]"},
		{"truncated count", nil, func(d *Dec) { d.Count("edge count", 2) }, "x: truncated edge count"},
		{"count fits", []byte{0x02, 1, 2, 3, 4}, func(d *Dec) { d.Count("edge count", 2); d.Buf = nil }, ""},
		{"count beyond bytes left", []byte{0x03, 1, 2, 3, 4, 5}, func(d *Dec) { d.Count("edge count", 2) },
			"x: implausible edge count 3 for 5 remaining bytes"},
		{"truncated byte", nil, func(d *Dec) { d.Byte("flags") }, "x: truncated flags"},
		{"truncated bytes length", []byte{0xff}, func(d *Dec) { d.Bytes("name") }, "x: truncated name length"},
		{"bytes overrun", []byte{0x04, 'a', 'b'}, func(d *Dec) { d.Bytes("name") }, "x: name of 4 bytes exceeds the 2 remaining"},
		{"trailing bytes", []byte{0x01, 0x02}, func(d *Dec) { d.Uvarint("round") }, "x: 1 trailing bytes after frame"},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDec("x", c.buf)
			c.read(&d)
			err := d.Finish("frame")
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want %q", err, c.want)
			}
		})
	}
}

// TestDecLatches: the first error wins, and every later read returns
// zero without consuming a byte.
func TestDecLatches(t *testing.T) {
	d := NewDec("x", []byte{0x0a, 0x01, 0x01, 'a'})
	if v := d.Int("vertex", 9); v != 0 {
		t.Fatalf("overflowing Int returned %d", v)
	}
	first := d.Err
	if d.Uvarint("a") != 0 || d.Int("b", 9) != 0 || d.Count("c", 1) != 0 || d.Byte("d") != 0 || d.Bytes("e") != nil {
		t.Fatal("a read after the error returned a value")
	}
	d.Fail("later failure")
	if d.Err != first || d.Finish("frame") != first {
		t.Fatalf("error %v replaced the first %v", d.Err, first)
	}
	if len(d.Buf) != 3 {
		t.Fatalf("%d bytes left; reads after the error consumed input", len(d.Buf))
	}
}

// TestDecReadsInOrder reads a well-formed payload end to end.
func TestDecReadsInOrder(t *testing.T) {
	d := NewDec("x", []byte{0x02, 'h', 'i', 0x07, 0x01, 0x2a})
	name, flags, n, v := d.Bytes("name"), d.Byte("flags"), d.Count("items", 1), d.Int("item", 42)
	if err := d.Finish("frame"); err != nil {
		t.Fatal(err)
	}
	if string(name) != "hi" || flags != 0x07 || n != 1 || v != 42 {
		t.Fatalf("read %q %#x %d %d", name, flags, n, v)
	}
}
