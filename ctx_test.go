package avtmor_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"avtmor"
	"avtmor/internal/circuits"
	"avtmor/internal/kron"
)

// TestReduceCancelPrompt is the cancellation acceptance check: on a
// ≥1000-state RLCLine reduction, Reduce must return promptly — well
// under the cost of finishing the Krylov chains — once the caller
// gives up.
func TestReduceCancelPrompt(t *testing.T) {
	w := avtmor.RLCLine(2000) // n = 3999, CSR-only
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan outcome, 1)
	canceledAt := make(chan time.Time, 1)
	go func() {
		_, err := avtmor.Reduce(ctx, w.System,
			avtmor.WithOrders(400, 0, 0)) // a long H1 chain: hundreds of back-solves
		at := <-canceledAt
		done <- outcome{err: err, elapsed: time.Since(at)}
	}()
	time.Sleep(20 * time.Millisecond) // let the chain get going
	canceledAt <- time.Now()
	cancel()
	select {
	case out := <-done:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", out.err)
		}
		// A single Krylov step on this system is a sparse back-solve
		// (~µs–ms); one second is orders of magnitude of slack while
		// staying flake-proof on loaded CI hosts.
		if out.elapsed > time.Second {
			t.Fatalf("Reduce took %v to honor cancellation", out.elapsed)
		}
		t.Logf("canceled Reduce returned in %v", out.elapsed)
	case <-time.After(30 * time.Second):
		t.Fatal("canceled Reduce never returned")
	}
}

// TestReducePreCanceled: a context that is already dead never starts
// the factorization machinery.
func TestReducePreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := avtmor.RLCLine(200)
	start := time.Now()
	_, err := avtmor.Reduce(ctx, w.System, avtmor.WithOrders(8, 0, 0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("pre-canceled Reduce took %v", d)
	}
}

// TestTrapezoidalCancel: the implicit integrator aborts mid-run.
func TestTrapezoidalCancel(t *testing.T) {
	w := avtmor.RLCLine(500) // n = 999
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := w.System.Simulate(ctx, w.U, w.TEnd, avtmor.WithTrapezoidal(100000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("canceled transient took %v", d)
	}
}

// TestRK4Cancel covers the explicit integrator's per-step poll.
func TestRK4Cancel(t *testing.T) {
	w := avtmor.NTLCurrent(60)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := w.System.Simulate(ctx, w.U, w.TEnd, avtmor.WithRK4(5_000_000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
}

// TestReduceNORMCancel: the multivariate generator loops poll too.
func TestReduceNORMCancel(t *testing.T) {
	w := avtmor.NTLCurrent(70)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := avtmor.ReduceNORM(ctx, w.System, avtmor.WithOrders(6, 3, 2), avtmor.WithExpansion(w.S0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

// TestReduceCancelCubicH3: the cubic H3 chain (⊕³G1 resolvent powers
// on the 102-state varistor) polls the context once per Schur column
// block, so a reduction canceled mid-chain returns within a few
// column solves instead of finishing the power. The chain runs eight
// powers so that it outlasts the cancel delay: at the paper's (7,0,2)
// the whole reduction can finish in under 100 ms, before the cancel.
func TestReduceCancelCubicH3(t *testing.T) {
	w := avtmor.Varistor()
	// Cancel 100 ms in, or later when the Schur decomposition of G1,
	// which does not poll, takes longer than a third of that (as under
	// the race detector): the bound is on the chain, not on the Schur.
	t0 := time.Now()
	if _, err := kron.NewSumSolver3(circuits.Varistor().Sys.G1); err != nil {
		t.Fatal(err)
	}
	wait := max(100*time.Millisecond, 3*time.Since(t0))
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan outcome, 1)
	canceledAt := make(chan time.Time, 1)
	go func() {
		_, err := avtmor.Reduce(ctx, w.System, avtmor.WithOrders(7, 0, 8), avtmor.WithExpansion(w.S0))
		at := <-canceledAt
		done <- outcome{err: err, elapsed: time.Since(at)}
	}()
	time.Sleep(wait)
	canceledAt <- time.Now()
	cancel()
	select {
	case out := <-done:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", out.err)
		}
		if out.elapsed > 250*time.Millisecond {
			t.Fatalf("Reduce took %v to honor cancellation", out.elapsed)
		}
		t.Logf("canceled Reduce returned in %v", out.elapsed)
	case <-time.After(30 * time.Second):
		t.Fatal("canceled Reduce never returned")
	}
}
