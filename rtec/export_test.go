package rtec

// Test-only names for the external test package: rulelib_test.go runs
// the spec (spec_test.go) on the Dublin rule library, and packages
// traffic and dublin import rtec, so that test cannot live inside it.
type (
	Spec    = spec
	SpecSDE = specSDE
)

var (
	NewSpec  = newSpec
	SpecDiff = specDiff
)
