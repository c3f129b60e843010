package engine

import (
	"fmt"
	"strings"
	"testing"
)

// contentPin is what one sweep of the small grid computed: the content
// digest of its canonical report and the grid-wide totals of rounds and
// delivered messages.
type contentPin struct {
	Digest   string
	Rounds   int64
	Messages int64
}

// contentPins holds, per scenarioDigestVersion, the small grid's outcome
// under each execution strategy. Scenario digests are the result
// store's keys, so a change to any result's bytes that keeps the
// version would let every existing store serve stale results as hits;
// TestContentPins turns that rule from prose into a failure. Keep old
// row sets when adding a new one: they document what each version
// computed.
var contentPins = map[string]map[string]contentPin{
	"idonly/scenario/v1": {
		"default":             {"c8aa256cf4d3e1a1997617cff70ba659f1b828da781df8ecc9e429ff13a7e82a", 4872, 6121025},
		"no-fast-path":        {"c8aa256cf4d3e1a1997617cff70ba659f1b828da781df8ecc9e429ff13a7e82a", 4872, 6121025},
		"churn-j2,l1,fj1,fl1": {"e6af7b1e5c6806d0a082e03a17139a73c012bd7c398c0a65011c83dd34e33c3f", 2436, 3470685},
		"chaos":               {"8d237156a791a690e70254418c3f3c62d7f3bad86bc8cfa8ef61a2e044c5c7aa", 2438, 2877793},
		"ring-chaos":          {"292a4b20ac7fb229e5674126a1396a36d588e6d9bf11453286b9781692552504", 180, 47830},
	},
}

// contentStrategy is one sweep TestContentPins runs.
type contentStrategy struct {
	name  string
	specs []Scenario
}

// contentStrategies are the small grid as preset, on the boxed
// instantiation, and with its churn axis replaced by one loaded spec —
// plus the small grid's shape under the chaos adversary, whose junk
// payloads lie outside every wire union, and the ring under the same
// junk.
func contentStrategies(t *testing.T) []contentStrategy {
	t.Helper()
	small := func() Grid {
		g, err := PresetGrid("small")
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	boxed := small().Scenarios()
	for i := range boxed {
		boxed[i].NoFastPath = true
	}
	churned := small()
	spec, err := ParseChurn("j2,l1,fj1,fl1")
	if err != nil {
		t.Fatal(err)
	}
	churned.Churns = []Churn{spec}
	chaos := small()
	chaos.Adversaries = []string{AdvChaos}
	ringChaos := chaos
	ringChaos.Protocols = []string{ProtoRing}
	ringChaos.Sizes = []int{7, 14, 32}
	return []contentStrategy{
		{"default", small().Scenarios()},
		{"no-fast-path", boxed},
		{"churn-j2,l1,fj1,fl1", churned.Scenarios()},
		{"chaos", chaos.Scenarios()},
		{"ring-chaos", ringChaos.Scenarios()},
	}
}

// TestContentPins proves "nothing simulated changed" for the small grid
// across execution strategies, and enforces the digest contract in both
// directions: result bytes that change under an unchanged
// scenarioDigestVersion fail, and so does a bumped version without a
// re-pinned row set. The medium grid (≈ 10 s a pass) is pinned by the
// "medium grid pinned canonical bytes" step of the CI bench job, which
// compares `idonly sweep -grid medium -canonical | sha256sum` with a
// hash kept in .github/workflows/ci.yml.
func TestContentPins(t *testing.T) {
	strategies := contentStrategies(t)
	got := make([]contentPin, len(strategies))
	for i, st := range strategies {
		rep := RunAll(st.specs, Options{Workers: 2, Grid: "small"})
		if errs := rep.Errors(); len(errs) > 0 {
			t.Fatalf("%s: %d scenarios failed; first: %s: %s", st.name, len(errs), errs[0].Scenario.Name, errs[0].Err)
		}
		d, err := rep.ContentDigest()
		if err != nil {
			t.Fatal(err)
		}
		got[i].Digest = d
		for _, res := range rep.Results {
			got[i].Rounds += int64(res.Rounds)
			got[i].Messages += res.MessagesDelivered
		}
	}

	// The row set to paste when re-pinning.
	var repin strings.Builder
	fmt.Fprintf(&repin, "\t%q: {\n", scenarioDigestVersion)
	for i, st := range strategies {
		fmt.Fprintf(&repin, "\t\t%q: {%q, %d, %d},\n", st.name, got[i].Digest, got[i].Rounds, got[i].Messages)
	}
	repin.WriteString("\t},\n")

	pins, ok := contentPins[scenarioDigestVersion]
	if !ok {
		t.Fatalf("scenarioDigestVersion is %q but contentPins has no row set for it.\n"+
			"Fix: re-pin — add this row set under the new version (and keep the old ones):\n%s",
			scenarioDigestVersion, repin.String())
	}
	for i, st := range strategies {
		if want := pins[st.name]; got[i] != want {
			t.Fatalf("%s: the small grid computed different results under unchanged scenarioDigestVersion %q:\n"+
				"  got  %+v\n  want %+v\n"+
				"Fix: if the change is intended, bump scenarioDigestVersion (stores keyed by the old version\n"+
				"would serve stale results as hits) and add this row set under the new version:\n%s",
				st.name, scenarioDigestVersion, got[i], want, repin.String())
		}
	}
}
