package vm

// Test-only hooks for the external vm_test package.

// FiredPatterns returns the names of the pattern superinstructions in
// the blocks of lp that a finished run with the given per-instruction
// counts executed.
func FiredPatterns(lp *Program, counts []uint64) map[string]bool {
	names := map[string]bool{}
	for p := range firedPatterns(lp, counts) {
		names[fusePatternNames[p]] = true
	}
	return names
}

// PatternNames lists every pattern superinstruction by name.
func PatternNames() []string { return fusePatternNames[fuseNone+1:] }
