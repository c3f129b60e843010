package engine

// Test-only names for the external engine_test package, whose sweep
// matrix also imports store and service (which import engine).
var EligibleSpecs, SmallGridReport = eligibleSpecs, smallGridReport

const ScenarioDigestVersion = scenarioDigestVersion
