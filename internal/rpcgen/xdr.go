// Package rpcgen implements the paper's "Local RPC" baseline: glibc
// rpcgen-style remote procedure calls over UNIX sockets (§2.2 footnote 1:
// "efficient UNIX socket-based RPC"). It contains a real XDR-style codec
// (RFC 4506 subset) and client/server stubs that marshal arguments,
// demultiplex requests by procedure number and copy data across the
// socket — all the per-call work Fig. 2 charges to user code and kernel
// copies.
package rpcgen

import (
	"encoding/binary"
	"fmt"
)

// Encoder serializes values into XDR wire format (big-endian, 4-byte
// aligned).
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded message.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded size.
func (e *Encoder) Len() int { return len(e.buf) }

// PutUint32 appends a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// PutBool appends an XDR boolean.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutBytes appends variable-length opaque data: length word, bytes,
// zero padding to a 4-byte boundary.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	for len(e.buf)%4 != 0 {
		e.buf = append(e.buf, 0)
	}
}

// Decoder deserializes XDR wire format.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps an encoded message.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

func (d *Decoder) take(n int) ([]byte, error) {
	if d.off+n > len(d.buf) {
		return nil, fmt.Errorf("rpcgen: xdr underflow: need %d bytes, have %d", n, len(d.buf)-d.off)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// Uint32 reads a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Bool reads an XDR boolean.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	return v != 0, err
}

// Bytes reads variable-length opaque data.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	b, err := d.take(int(n))
	if err != nil {
		return nil, err
	}
	pad := (4 - int(n)%4) % 4
	if _, err := d.take(pad); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}
