package vm

import "testing"

// Test-only hooks for the external vm_test package.

// FiredPatterns returns the names of the pattern superinstructions and
// terminator folds in the blocks of lp that a finished run with the
// given per-instruction counts executed.
func FiredPatterns(lp *Program, counts []uint64) map[string]bool { return firedPatterns(lp, counts) }

// PatternNames lists every pattern superinstruction and terminator fold
// by name.
func PatternNames() []string { return fuseNames() }

// CrossSlotPatterns names the FP families and terminator folds: the
// superinstructions that reach across a slot boundary in the fork-point
// engine's assemblies.
func CrossSlotPatterns() []string {
	return []string{
		fusePatternNames[fuseLoadOp], fusePatternNames[fuseArithChain],
		fusePatternNames[fuseArithStore], fusePatternNames[fuseCvtStamp],
		foldName(fuseLoadImmCmp), foldName(fuseFlagTest),
	}
}

// AgreeWithLink checks that il.Assemble(ch, split...) equals Link of the
// same flattened stream — blocks, superinstructions, folds and the final
// machine — as TestIncrementalAssembleAgreesWithLink does, and returns
// how many superinstructions span a fragment boundary.
func AgreeWithLink(t *testing.T, label string, il *IncrementalLinker, sites []IncrementalSite, ch, split []int) int {
	return agreeWithLink(t, label, il, sites, ch, split)
}
