package engine_test

// contentPin is what one sweep of a pinned spec list computed: the
// content digest of its canonical report and the list-wide totals of
// rounds and delivered messages.
type contentPin struct {
	Digest   string
	Rounds   int64
	Messages int64
}

// contentPins holds, per scenario digest version, what each pinned spec
// list computes. Scenario digests are the result store's keys, so a
// change to any result's bytes that keeps the version would let every
// existing store serve stale results as hits; TestSweepStrategies turns
// that rule from prose into a failure on every execution strategy, and
// TestContentPins fails a bumped version that has no row set. Keep old
// row sets when adding a new one: they document what each version
// computed (v1's keys are the sweeps of its day; "no-fast-path" is now
// a column over the small row).
var contentPins = map[string]map[string]contentPin{
	"idonly/scenario/v1": {
		"default":             {"c8aa256cf4d3e1a1997617cff70ba659f1b828da781df8ecc9e429ff13a7e82a", 4872, 6121025},
		"no-fast-path":        {"c8aa256cf4d3e1a1997617cff70ba659f1b828da781df8ecc9e429ff13a7e82a", 4872, 6121025},
		"churn-j2,l1,fj1,fl1": {"e6af7b1e5c6806d0a082e03a17139a73c012bd7c398c0a65011c83dd34e33c3f", 2436, 3470685},
		"chaos":               {"8d237156a791a690e70254418c3f3c62d7f3bad86bc8cfa8ef61a2e044c5c7aa", 2438, 2877793},
		"ring-chaos":          {"292a4b20ac7fb229e5674126a1396a36d588e6d9bf11453286b9781692552504", 180, 47830},
		"replay":              {"931e6de57f5d21c50033b89f1d9af4e90f208f4e7ec6fd118bac5bc9b7f5e33e", 2436, 19882687},
	},
	// v2: type-tagged binary sort keys replace the %v text. A sender's
	// run is ordered by tag and then by number, so only an adversary
	// whose sends depend on inbox position moves: chaos replays
	// inbox[rng.Intn(len)]. The last three rows were pinned under v2
	// when they joined the sweep matrix.
	"idonly/scenario/v2": {
		"small":               {"c8aa256cf4d3e1a1997617cff70ba659f1b828da781df8ecc9e429ff13a7e82a", 4872, 6121025},
		"churn-j2,l1,fj1,fl1": {"e6af7b1e5c6806d0a082e03a17139a73c012bd7c398c0a65011c83dd34e33c3f", 2436, 3470685},
		"chaos":               {"23c74d78cd78cdd34fe58238341cfb39d2495db24a20cf0a30dd0f921416d2ba", 2438, 2877850},
		"ring-chaos":          {"d2eb5ba567ce1415b60a4232f98da58874cfb6a69bf475601011f0582b52ebb5", 180, 47804},
		"replay":              {"931e6de57f5d21c50033b89f1d9af4e90f208f4e7ec6fd118bac5bc9b7f5e33e", 2436, 19882687},
		"eligible":            {"f8e13c7892e30a1d2b2bb9b6d675e2461f4b949c60f4b1fca0f9bae89056c96e", 3519, 6848261},
		"churn-grid":          {"b801a3dd1e343fe34cd5d4dccb30a3d890ab545a40d1dda3e424b5a56ccd918d", 456, 676313},
		"ring10k":             {"b3fc14259ca5e6968c9466aadea113b325d7545a1f94ec64e21b8d7e712e6985", 15, 1960000},
	},
}
