package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// scenarioDigestVersion is the version tag mixed into every scenario
// digest. Bump it whenever the digest encoding — or anything that
// changes a scenario's result bytes for the same encoded fields —
// changes, so stale cache entries can never be served for new
// semantics. The golden digests in digest_test.go pin the current
// scheme.
const scenarioDigestVersion = "idonly/scenario/v2"

// Digest returns the scenario's content address: the SHA-256 (hex) of a
// canonical encoding of every field that influences the run's result
// bytes, taken after default resolution so a spec with zero MaxRounds
// and one with the explicit protocol default address the same result.
//
// Because a scenario derives all of its randomness from Seed, its
// Result is a pure function of this digest; a content-addressed store
// keyed by it can serve a previously computed Result byte-for-byte.
// NoFastPath is deliberately excluded: the boxed instantiation is
// proven bit-identical to the default path, so it changes how fast the
// result is computed, never what it is. TestDigestCoversEveryField fails on any other
// field that does not move the digest.
func (s Scenario) Digest() string {
	s = s.withDefaults()
	// One "key=value" line per field after the version line, hashed
	// from a stack buffer.
	var buf [256]byte
	b := append(buf[:0], scenarioDigestVersion+"\nname="...)
	b = append(b, s.Name...)
	b = append(append(b, "\nprotocol="...), s.Protocol...)
	b = append(append(b, "\nadversary="...), s.Adversary...)
	b = strconv.AppendInt(append(b, "\nn="...), int64(s.N), 10)
	b = strconv.AppendInt(append(b, "\nf="...), int64(s.F), 10)
	b = strconv.AppendUint(append(b, "\nseed="...), s.Seed, 10)
	b = strconv.AppendInt(append(b, "\nmax_rounds="...), int64(s.MaxRounds), 10)
	b = strconv.AppendInt(append(b, "\npairs="...), int64(s.Pairs), 10)
	if c := s.Churn; c != nil {
		// The full spec, Window included: the window shifts every churn
		// round drawn by churnPlan, so it is result-relevant.
		b = strconv.AppendInt(append(b, "\nchurn=j"...), int64(c.Joins), 10)
		b = strconv.AppendInt(append(b, ",l"...), int64(c.Leaves), 10)
		b = strconv.AppendInt(append(b, ",fj"...), int64(c.FaultyJoins), 10)
		b = strconv.AppendInt(append(b, ",fl"...), int64(c.FaultyLeaves), 10)
		b = strconv.AppendInt(append(b, ",w"...), int64(c.Window), 10)
	}
	sum := sha256.Sum256(append(b, '\n'))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// ContentDigest returns the SHA-256 (hex) of the report's canonical
// bytes: two sweeps computed the same results if and only if their
// content digests match, regardless of worker count or timing. The
// bytes are streamed into the hash in chunks of about spillAt; the
// whole rendering is never held. The error is always nil.
func (r *Report) ContentDigest() (string, error) {
	h := sha256.New()
	w := jsonOut{b: make([]byte, 0, 2*spillAt), canonical: true, sink: h}
	w.report(r)
	h.Write(append(w.b, '\n'))
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])), nil
}

// ParseChurn parses a churn spec in the same compact form Churn.Label
// renders: comma-separated jN / lN / fjN / flN / wN terms (e.g.
// "j2,l1,fj1,fl1"). The literal "none" is the zero spec (a static-only
// axis). Each term may appear once. The bench and sim binaries and the
// sweep service all accept this syntax.
func ParseChurn(spec string) (Churn, error) {
	var c Churn
	if spec == "none" {
		return c, nil
	}
	seen := make(map[*int]bool, 5)
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		var dst *int
		var num string
		switch {
		case strings.HasPrefix(term, "fj"):
			dst, num = &c.FaultyJoins, term[2:]
		case strings.HasPrefix(term, "fl"):
			dst, num = &c.FaultyLeaves, term[2:]
		case strings.HasPrefix(term, "j"):
			dst, num = &c.Joins, term[1:]
		case strings.HasPrefix(term, "l"):
			dst, num = &c.Leaves, term[1:]
		case strings.HasPrefix(term, "w"):
			dst, num = &c.Window, term[1:]
		default:
			return c, fmt.Errorf("churn spec: unknown term %q (want jN, lN, fjN, flN or wN)", term)
		}
		n, err := strconv.Atoi(num)
		if err != nil || n < 0 {
			return c, fmt.Errorf("churn spec: bad count in %q", term)
		}
		if seen[dst] {
			return c, fmt.Errorf("churn spec: term %q repeats an earlier one", term)
		}
		seen[dst] = true
		*dst = n
	}
	return c, nil
}
