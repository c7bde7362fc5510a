package graph

// ProgramOf returns the program e runs, so a test can tell a reused one
// from a recompiled one.
func ProgramOf(e *Executor) *Program { return e.prog }
