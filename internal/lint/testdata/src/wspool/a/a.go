// Package a exercises the wspool analyzer: pooled buffers from the
// mat arena must be returned on every path and must not outlive the
// function that borrowed them.
package a

import "mat"

func leaky(n int) error {
	w := mat.GetVec(n)
	if n > 3 {
		return nil // want "return without PutVec"
	}
	mat.PutVec(w)
	return nil
}

func escapes(n int) []float64 {
	w := mat.GetVec(n)
	defer mat.PutVec(w)
	return w // want "is returned"
}

type holder struct{ buf []float64 }

func fieldEscape(h *holder, n int) {
	b := mat.GetVec(n)
	h.buf = b // want "is stored in a field"
	mat.PutVec(b)
}

func implicitLeak(n int) {
	z := mat.GetVec(n)
	z[0] = 1
} // want "return without PutVec"

// deferredPut is the sanctioned idiom: a deferred Put covers every
// return path, including ones added later.
func deferredPut(n int) error {
	w := mat.GetVec(n)
	defer mat.PutVec(w)
	if n > 3 {
		return nil
	}
	w[0] = 1
	return nil
}

// paired releases positionally before the (implicit) return.
func paired(n int) {
	w := mat.GetVec(n)
	w[0]++
	mat.PutVec(w)
}

// workspacePair pairs the method form Get/Put.
func workspacePair(ws *mat.Workspace, n int) {
	b := ws.Get(n)
	b[0] = 2
	ws.Put(b)
}

// valueElem copies a float64 element out of the buffer: a value copy
// is not an escape.
func valueElem(n int) float64 {
	w := mat.GetVec(n)
	v := w[0]
	mat.PutVec(w)
	return v
}

// sized may pass the buffer to len and cap without escaping it.
func sized(n int) int {
	w := mat.GetVec(n)
	c := len(w) + cap(w)
	mat.PutVec(w)
	return c
}
