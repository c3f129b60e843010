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
const scenarioDigestVersion = "idonly/scenario/v1"

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
	h := sha256.New()
	var b strings.Builder
	b.Grow(256)
	b.WriteString(scenarioDigestVersion)
	b.WriteByte('\n')
	field := func(k, v string) {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
		b.WriteByte('\n')
	}
	field("name", s.Name)
	field("protocol", s.Protocol)
	field("adversary", s.Adversary)
	field("n", strconv.Itoa(s.N))
	field("f", strconv.Itoa(s.F))
	field("seed", strconv.FormatUint(s.Seed, 10))
	field("max_rounds", strconv.Itoa(s.MaxRounds))
	field("pairs", strconv.Itoa(s.Pairs))
	if c := s.Churn; c != nil {
		// The full spec, Window included: the window shifts every churn
		// round drawn by churnPlan, so it is result-relevant even though
		// Churn.Label omits it.
		field("churn", fmt.Sprintf("j%d,l%d,fj%d,fl%d,w%d",
			c.Joins, c.Leaves, c.FaultyJoins, c.FaultyLeaves, c.Window))
	}
	h.Write([]byte(b.String()))
	return hex.EncodeToString(h.Sum(nil))
}

// ContentDigest returns the SHA-256 (hex) of the report's canonical
// bytes: two sweeps computed the same results if and only if their
// content digests match, regardless of worker count or timing.
func (r *Report) ContentDigest() (string, error) {
	b, err := r.CanonicalBytes()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
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
