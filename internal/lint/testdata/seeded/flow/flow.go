// Package flow seeds a ctxflow violation for the CI smoke test: the
// lint wall must exit nonzero on this tree. Deliberately wrong — do
// not fix. It imports the real solver package, so it also exercises
// the loader's module-internal import path.
package flow

import (
	"context"

	"avtmor/internal/solver"
)

// Drop holds a context but calls the context-free SolveBatch anyway.
func Drop(ctx context.Context, f solver.Factorization, cols [][]float64) {
	f.SolveBatch(cols)
}
