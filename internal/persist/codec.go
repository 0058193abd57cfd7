// Package persist is the durability layer for long-horizon serving: a
// versioned, CRC-framed binary snapshot of complete per-cell state plus a
// write-ahead log of the Decide/Observe operations issued since the last
// snapshot. Restore = load the newest valid snapshot + replay the WAL tail,
// which is bit-identical to never having died (the sim layer owns the state
// encoding; this package owns framing, atomic file handling, generations,
// and corruption fallback).
//
// The package deliberately knows nothing about cells or policies: payloads
// are opaque byte slices produced by the Encoder and consumed by the
// Decoder. It imports only the standard library and internal/obs.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder builds a deterministic binary state payload: fixed-width
// little-endian primitives, length-prefixed strings and slices, explicit
// nil flags where nil-vs-empty is semantically meaningful. Callers that
// serialize maps must iterate keys in sorted order — the encoder has no
// map support on purpose, so non-determinism cannot sneak in.
type Encoder struct {
	b []byte
}

// Bytes returns the encoded payload. The slice aliases the encoder's
// buffer; append nothing after taking it.
func (e *Encoder) Bytes() []byte { return e.b }

// Uint32 appends a fixed-width little-endian uint32.
func (e *Encoder) Uint32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// Uint64 appends a fixed-width little-endian uint64.
func (e *Encoder) Uint64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// Int64 appends a fixed-width int64.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Int appends an int as a fixed-width int64.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Float64 appends the IEEE-754 bit pattern of v. NaN payloads round-trip
// exactly (the sim layer stores NaN sentinels, e.g. unknown volMAE).
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	e.b = append(e.b, s...)
}

// Blob appends a nil flag plus a length-prefixed byte slice.
func (e *Encoder) Blob(p []byte) {
	e.Bool(p == nil)
	if p == nil {
		return
	}
	e.Int(len(p))
	e.b = append(e.b, p...)
}

// Float64Slice appends a nil flag plus a length-prefixed []float64.
func (e *Encoder) Float64Slice(v []float64) {
	e.Bool(v == nil)
	if v == nil {
		return
	}
	e.Int(len(v))
	for _, x := range v {
		e.Float64(x)
	}
}

// IntSlice appends a nil flag plus a length-prefixed []int.
func (e *Encoder) IntSlice(v []int) {
	e.Bool(v == nil)
	if v == nil {
		return
	}
	e.Int(len(v))
	for _, x := range v {
		e.Int(x)
	}
}

// BoolSlice appends a nil flag plus a length-prefixed []bool.
func (e *Encoder) BoolSlice(v []bool) {
	e.Bool(v == nil)
	if v == nil {
		return
	}
	e.Int(len(v))
	for _, x := range v {
		e.Bool(x)
	}
}

// Decoder reads an Encoder payload back with sticky-error semantics: the
// first malformed read poisons the decoder, every later read returns a
// zero value, and Err/Finish report the failure. Every length is bounds-
// checked against the remaining input before any allocation, so a decoder
// over hostile bytes can never panic or balloon memory — the property the
// persist fuzzers lean on.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps a payload for decoding. The decoder aliases b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Finish returns an error if decoding failed or input bytes are left
// over (a trailing-garbage check — a valid payload is consumed exactly).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("persist: %d trailing bytes after payload", len(d.b)-d.off)
	}
	return nil
}

func (d *Decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: "+format, args...)
	}
}

// take returns the next n raw bytes, or nil after poisoning the decoder.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.failf("truncated payload: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// Uint32 reads a fixed-width uint32.
func (d *Decoder) Uint32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// Uint64 reads a fixed-width uint64.
func (d *Decoder) Uint64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Int64 reads a fixed-width int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Int reads an int encoded as int64.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Float64 reads an IEEE-754 bit pattern.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bool reads one byte that must be exactly 0 or 1 — any other value is
// treated as corruption, not coerced.
func (d *Decoder) Bool() bool {
	p := d.take(1)
	if p == nil {
		return false
	}
	switch p[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.failf("invalid bool byte %#x at offset %d", p[0], d.off-1)
		return false
	}
}

// length reads a collection length and validates it against the bytes
// remaining (each element needs at least elemSize bytes), capping what a
// hostile length prefix can make us allocate.
func (d *Decoder) length(elemSize int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	// Divide, don't multiply: n*elemSize can overflow on a hostile length.
	if n < 0 || n > d.Remaining()/elemSize {
		d.failf("implausible length %d (elem %dB, %dB remaining)", n, elemSize, d.Remaining())
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.length(1)
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// Blob reads a nil flag plus a length-prefixed byte slice. The returned
// slice is a copy, safe to retain.
func (d *Decoder) Blob() []byte {
	if d.Bool() {
		return nil
	}
	n := d.length(1)
	p := d.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// Float64Slice reads a nil flag plus a length-prefixed []float64.
func (d *Decoder) Float64Slice() []float64 {
	if d.Bool() {
		return nil
	}
	n := d.length(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Float64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// IntSlice reads a nil flag plus a length-prefixed []int.
func (d *Decoder) IntSlice() []int {
	if d.Bool() {
		return nil
	}
	n := d.length(8)
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// BoolSlice reads a nil flag plus a length-prefixed []bool.
func (d *Decoder) BoolSlice() []bool {
	if d.Bool() {
		return nil
	}
	n := d.length(1)
	if d.err != nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.Bool()
	}
	if d.err != nil {
		return nil
	}
	return out
}
