// The designated fallback file: the one place in the simulator where
// reflection is allowed. Unregistered payload types — anything outside
// the SortKeyer registry, chaos junk included — take this slow path
// for their sort keys, exactly the pre-registry semantics. Everything
// else in this package is contractually allocation-free per steady
// round — TestSteadyRoundAllocs pins a warm typed round at zero
// allocations, so an fmt.Sprintf or an any box on the per-send path
// fails it — and no file imports reflect (TestNoReflectImport).
package sim

import "fmt"

// appendFallbackKey renders the deterministic sort key of an
// unregistered payload: fmt's %v form, byte-identical to what the
// original reflective path produced, so mixing registered and
// unregistered payloads never reorders an inbox.
func appendFallbackKey(dst []byte, payload any) []byte {
	return fmt.Append(dst, payload)
}
