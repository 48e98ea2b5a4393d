package mat

import "sync"

// Workspace is a reusable scratch-vector pool for the allocation-free
// hot paths of the numerics spine: triangular back-solves, Krylov chain
// iterations, and Newton steps borrow their temporaries here instead of
// calling make per iteration. It is safe for concurrent use (the
// parallel moment generators share one pool), and a zero Workspace is
// ready to use.
//
// Buffers come back with undefined contents: callers must fully
// overwrite what they Get. A buffer too small for the requested length
// is dropped on the floor rather than grown, so a pool that serves one
// problem size — the steady state of every chain — reaches zero
// allocations after the first iteration.
type Workspace struct {
	pool sync.Pool
}

// Get returns a length-n scratch vector with undefined contents.
func (w *Workspace) Get(n int) []float64 {
	if v := w.pool.Get(); v != nil {
		if buf := *(v.(*[]float64)); cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// Put returns a buffer obtained from Get. The caller must not use buf
// (or any slice aliasing it) afterwards.
func (w *Workspace) Put(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	w.pool.Put(&buf)
}

// shared is the process-wide workspace behind GetVec/PutVec. The
// numeric layers all solve over a handful of stable dimensions per
// reduction, which is exactly the reuse pattern Workspace wants.
var shared Workspace

// GetVec borrows a length-n scratch vector (undefined contents) from
// the shared workspace pool.
func GetVec(n int) []float64 { return shared.Get(n) }

// PutVec returns a GetVec buffer to the shared pool.
func PutVec(buf []float64) { shared.Put(buf) }
