package lint

import "go/token"

// Fset returns the loader's shared file set, so the concurrency tests can
// type-check planted sources against the standard library packages the
// loader already holds (checkWithLoader).
func (l *Loader) Fset() *token.FileSet { return l.fset }
