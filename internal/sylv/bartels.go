package sylv

import (
	"avtmor/internal/mat"
	"avtmor/internal/schur"
)

// SolveTFactored solves A·X + X·Bᵀ = C given Schur forms of A and B.
// Note Bᵀ = Qb·Rbᵀ·Qbᵀ, so the reduced equation is Ra·Y + Y·Rbᵀ = QaᵀCQb.
// Callers that solve repeatedly against the same A cache its Schur form.
func SolveTFactored(sa, sb *schur.Schur, c *mat.Dense) (*mat.Dense, error) {
	ct := sa.Q.T().Mul(c).Mul(sb.Q)
	y, err := TrSylvT(sa.T, sb.T, 0, ct)
	if err != nil {
		return nil, err
	}
	return sa.Q.Mul(y).Mul(sb.Q.T()), nil
}
