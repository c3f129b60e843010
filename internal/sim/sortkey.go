// Sort keys: the one encoding behind inbox order.
//
// Every message the runner delivers has a sort key, the bytes that
// order one sender's run in an inbox. A payload type renders its own
// key by implementing SortKeyer; the runner formats nothing itself.
// The typed plane compares, the boxed plane renders: a wire union
// (WireMsg) also implements Compare, whose sign is bytes.Compare's
// over the two keys, and the typed runner orders by it and renders
// nothing; the boxed runner renders both keys of each comparison into
// scratch and keeps none, and a boxed payload without a key panics,
// naming its type, once it is compared (AppendKey) — payloads of one
// sender in one inbox are, and no other order needs a key. The
// Compare helpers below compare one field as its Append form's bytes
// would.
//
// The contract is one encoding for every payload type in the
// repository:
//
//   - One tag byte naming the payload type. A tag belongs to exactly
//     one type repository-wide; each package draws its tags from its
//     own range:
//
//     0x10–0x1f rotor        0x50–0x5f parallel
//     0x20–0x2f consensus    0x60–0x6f dynamic
//     0x30–0x3f approx       0x70–0x7f ring
//     0x40–0x4f rbroadcast   0x80–0x8f baseline
//
//     Test-only payload types take 0xf0–0xff.
//
//   - Then the fields, in declaration order, each in its kind's form
//     (the Append helpers below): ids and unsigned ints as 8 bytes
//     big-endian; signed ints as 8 bytes big-endian with the sign bit
//     flipped; float64 as 8 order-preserving bytes, −0 written as +0;
//     bool as one byte; strings as a uvarint length, then the bytes. A
//     wrapper (dynamic.SessMsg) writes the wrapped payload's whole key
//     as its last field, and nothing for a nil one.
//
// Two consequences carry the delivery plane:
//
//   - The key is injective across types: two payloads render the same
//     bytes exactly when they are equal Go values. Distinct types differ
//     in the tag, and every field form is fixed-width or
//     length-prefixed. −0 and +0 compare equal and render alike; NaN,
//     which never equals itself, is the one value outside the contract,
//     and no protocol or adversary here produces it. So a sender's
//     repeats tie only with each other and sort next to each other,
//     where the close of its sends drops them, keeping one copy of a
//     (sender, payload) per recipient per round: no two entries of one
//     sender's run ever tie, any correct sort yields the one order,
//     and two sorted runs merge exactly (plane.go).
//   - Byte order agrees with numeric order field by field: ids, ints
//     and floats sort as numbers, id 9 before id 10.
//
// Registering a payload type means implementing AppendSortKey with a
// fresh tag from its package's range and adding sample values to
// internal/sortkeys, whose tests hold every registered type to the
// contract. A wire union renders no key: its Compare agrees with the
// key of the payload each value unwraps to (FuzzWireCompare in
// internal/sortkeys), so both planes order an inbox alike.
package sim

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"strings"
)

// SortKeyer is implemented by every payload type the runner carries.
type SortKeyer interface {
	// AppendSortKey appends the payload's sort key — its tag, then its
	// fields — to dst and returns the extended slice.
	AppendSortKey(dst []byte) []byte
}

// AppendUint appends an id or unsigned int: 8 bytes, big-endian.
func AppendUint(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// AppendInt appends a signed int: 8 bytes, big-endian, sign bit
// flipped, so negative numbers sort first.
func AppendInt(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v)^1<<63)
}

// AppendFloat appends a float64 as 8 bytes whose byte order is the
// numbers' order: a negative number has every bit flipped, any other
// only its sign bit. −0 is written as +0, the value it equals.
func AppendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, floatKey(v))
}

// floatKey is the big-endian number AppendFloat writes for v.
func floatKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// CompareFloat compares two float64 fields as their keys do: as
// numbers, −0 equal to +0.
func CompareFloat(a, b float64) int { return cmp.Compare(floatKey(a), floatKey(b)) }

// AppendBool appends a bool: one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// CompareBool compares two bool fields as their keys do: false first.
func CompareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	}
	return 1
}

// AppendString appends a string: its length as a uvarint, then its
// bytes.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// CompareString compares two string fields as their keys do: the
// lengths' uvarints first, then the bytes. A uvarint is prefix-free,
// so unequal lengths decide. Below 128 a length is its own one byte
// and compares as a number; above, it need not — 255 renders ff 01,
// which sorts after 256's 80 02.
func CompareString(a, b string) int {
	if len(a) == len(b) {
		return strings.Compare(a, b)
	}
	if len(a) < 0x80 && len(b) < 0x80 {
		return cmp.Compare(len(a), len(b))
	}
	var la, lb [binary.MaxVarintLen64]byte
	return bytes.Compare(binary.AppendUvarint(la[:0], uint64(len(a))), binary.AppendUvarint(lb[:0], uint64(len(b))))
}
