// Large-circuit workflow: reduce a multi-thousand-state RLC
// transmission line through the sparse-direct solver spine. Beyond
// ~2500 states the workload is CSR-only — no dense G1 is ever formed —
// and the whole flow (moment generation, projection, full-order
// reference transient) stays O(nnz·fill). The context makes the long
// reduction abortable; the serialization round trip at the end is how
// a service would cache this artifact.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"avtmor"
)

func main() {
	ctx := context.Background()
	w := avtmor.RLCLine(2500) // 4999 states, ~2.5 nonzeros per row
	fmt.Printf("workload %q: n = %d, CSR-only = %v, G1 nnz = %d\n",
		w.Name, w.System.States(), w.System.SparseOnly(), w.System.Nonzeros())

	start := time.Now()
	rom, err := avtmor.Reduce(ctx, w.System,
		avtmor.WithOrders(8, 0, 0),
		avtmor.WithParallel())
	if err != nil {
		log.Fatal(err)
	}
	st := rom.Stats()
	fmt.Printf("ROM order %d, built in %v (backend %s, %d factorizations, %d cache hits)\n",
		rom.Order(), time.Since(start).Round(time.Millisecond),
		st.Backend, st.Factorizations, st.SolveCacheHits)

	// Full-order reference on a short window: the trapezoidal Newton
	// matrix is assembled in CSR, which the auto-routed solver factors
	// with the sparse LU.
	const (
		tEnd  = 10.0
		steps = 400
	)
	start = time.Now()
	full, err := w.System.Simulate(ctx, w.U, tEnd, avtmor.WithTrapezoidal(steps))
	if err != nil {
		log.Fatal(err)
	}
	tFull := time.Since(start)
	red, err := rom.Simulate(ctx, w.U, tEnd, avtmor.WithTrapezoidal(steps))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full transient %v, ROM max relative error %.3g\n",
		tFull.Round(time.Millisecond), avtmor.MaxRelErr(full, red, 0))

	// The ROM is a durable artifact: serialize, reload, simulate again.
	var buf bytes.Buffer
	if _, err := rom.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	reloaded, err := avtmor.ReadROM(&buf)
	if err != nil {
		log.Fatal(err)
	}
	again, err := reloaded.Simulate(ctx, w.U, tEnd, avtmor.WithTrapezoidal(steps))
	if err != nil {
		log.Fatal(err)
	}
	identical := true
	for k := range red.Y {
		if red.Y[k][0] != again.Y[k][0] {
			identical = false
			break
		}
	}
	fmt.Printf("serialized ROM: reloaded simulation bit-identical: %v\n", identical)
}
