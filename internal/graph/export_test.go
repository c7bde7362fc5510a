package graph

// PackedSteps reports, for tests, how many of g's compiled steps run a
// kernel reading panels packed at compile — the one kernel fact
// Program.Counts leaves out.
func PackedSteps(g *Graph) (int64, error) {
	p, err := Compile(g)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range p.steps {
		if s.k.packed {
			n++
		}
	}
	return n, nil
}

// ProgramOf returns the program e runs, so a test can tell a reused one
// from a recompiled one.
func ProgramOf(e *Executor) *Program { return e.prog }
