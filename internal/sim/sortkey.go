// Typed sort keys: the reflection-free contract of the delivery path.
//
// Every message delivered by the runner needs a deterministic sort key
// (the inbox order tie-break) and a duplicate-filter identity. The
// original path derived both from the boxed payload: fmt.Sprint for the
// key, interface equality for the filter. Payload types that implement
// SortKeyer instead render their own key bytes into a pooled arena, so
// the hot loop formats nothing; the filter identity is the payload
// value itself, on every instantiation of the runner (generic.go).
//
// The contract is strict because the schedule is golden-pinned:
//
//   - AppendSortKey must produce bytes identical to what
//     fmt.Sprint(payload) renders (the %v form), so the inbox order —
//     and with it every trace digest and canonical report — is
//     unchanged. internal/sortkeys enforces this differentially and
//     under fuzzing for every registered type.
//   - Within one type, the %v rendering must agree with Go equality in
//     both directions: distinct values render distinct bytes (the
//     repository's message structs — ints, ids, bools, strings in
//     last-position-unambiguous layouts — have this), and equal values
//     render equal bytes. It is what lets the filter key on values:
//     two payloads of the same type are the same message exactly when
//     their bytes match. Values where rendering and equality disagree
//     must not be carried by registered types: NaN (renders equal,
//     compares unequal) and negative zero (compares equal to +0,
//     renders "-0") — no protocol or adversary here produces either.
//
// Registering a payload type means implementing AppendSortKey and adding
// sample values to internal/sortkeys, whose tests hold the type to both
// rules. Two types whose renderings collide stay distinct messages,
// because their values differ in type.
//
// Unregistered payloads keep working: the boxed runner falls back to
// fmt.Append for their sort key, exactly the original semantics.
package sim

import "strconv"

// SortKeyer is implemented by payload types on the fast delivery path.
type SortKeyer interface {
	// AppendSortKey appends the payload's deterministic sort key to dst
	// and returns the extended slice. The bytes must equal
	// fmt.Sprint(payload) exactly.
	AppendSortKey(dst []byte) []byte
}

// The Append helpers below centralize how fmt's %v renders the field
// kinds that appear in message payloads, so the per-type AppendSortKey
// implementations cannot drift from the fmt.Sprint contract one kind at
// a time. Strings append verbatim (no quoting in %v); structs are
// rendered by the caller as '{' + space-joined fields + '}'.

// AppendUint renders an unsigned integer (ids.ID, parallel.PairID, …)
// the way %v does.
func AppendUint(dst []byte, v uint64) []byte {
	return strconv.AppendUint(dst, v, 10)
}

// AppendInt renders a signed integer the way %v does.
func AppendInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// AppendFloat renders a float64 the way %v does: shortest
// round-tripping %g form.
func AppendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// AppendBool renders a bool the way %v does.
func AppendBool(dst []byte, v bool) []byte {
	return strconv.AppendBool(dst, v)
}
