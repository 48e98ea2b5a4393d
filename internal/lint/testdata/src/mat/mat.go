// Package mat is a fixture stand-in for avtmor/internal/mat: it
// mirrors the pooled-buffer API surface the wspool analyzer pairs up
// (GetVec/PutVec, Workspace.Get/Put) without pulling the real numerics
// package into analyzer fixtures.
package mat

// Workspace mimics the per-integration buffer arena.
type Workspace struct{}

// Get hands out a pooled real vector.
func (w *Workspace) Get(n int) []float64 { return make([]float64, n) }

// Put returns a vector obtained from Get.
func (w *Workspace) Put(buf []float64) {}

// GetVec hands out a pooled real vector.
func GetVec(n int) []float64 { return make([]float64, n) }

// PutVec returns a vector obtained from GetVec.
func PutVec(buf []float64) {}
