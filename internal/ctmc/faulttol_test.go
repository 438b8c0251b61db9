// Fault-tolerance properties of the solver layer: cancellation at exact
// iterations, the shared worker-panic contract, and the batch's rejection
// of the retired Jacobi scheme.
package ctmc_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/fault"
	"repro/internal/faultinject"
)

// TestEscalationRejectsInBatch pins that the batch rejects the retired
// Jacobi scheme — the last sweep the escalation ladder switched to —
// loudly, instead of silently running another scheme.
func TestEscalationRejectsInBatch(t *testing.T) {
	c := rpcParamChain(t)
	if _, err := c.SolveBatch(rpcPoints()[:2], ctmc.BatchOptions{
		Solve: ctmc.SolveOptions{Sweep: ctmc.SweepJacobi},
	}); err == nil {
		t.Error("SolveBatch accepted the retired Jacobi sweep")
	}
}

// TestSolveCancelAtIteration cancels a solve at an exact iteration via an
// injected trigger and checks the typed error: phase, iteration, and the
// context cause are all reported.
func TestSolveCancelAtIteration(t *testing.T) {
	for _, sweep := range []ctmc.Sweep{ctmc.SweepGaussSeidel} {
		ctx, cancel := context.WithCancel(context.Background())
		plan := faultinject.NewPlan().Arm(faultinject.SiteSolveIteration, 3).
			OnFire(faultinject.SiteSolveIteration, func(int) { cancel() })
		faultinject.Activate(plan)

		c := rpcParamChain(t)
		_, err := c.SteadyState(ctmc.SolveOptions{Sweep: sweep, Ctx: ctx})
		faultinject.Deactivate()
		cancel()
		if err == nil {
			t.Fatalf("sweep %v: cancellation ignored", sweep)
		}
		var ce *fault.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("sweep %v: want *fault.CanceledError, got %T: %v", sweep, err, err)
		}
		if ce.Phase != "ctmc.steady-state" || ce.Iteration != 3 {
			t.Errorf("sweep %v: canceled at %q iteration %d, want ctmc.steady-state iteration 3",
				sweep, ce.Phase, ce.Iteration)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("sweep %v: cause chain lost context.Canceled: %v", sweep, err)
		}
	}
}

// requireWorkerPanic asserts the full error contract of a recovered
// worker panic: the typed wrapper with pool attribution, the sentinel for
// errors.Is, and the injected fault reachable by errors.As.
func requireWorkerPanic(t *testing.T, err error, pool, site string, key int) {
	t.Helper()
	if err == nil {
		t.Fatalf("pool %s: injected panic vanished", pool)
	}
	var wpe *fault.WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("pool %s: want *fault.WorkerPanicError, got %T: %v", pool, err, err)
	}
	if wpe.Pool != pool {
		t.Errorf("panic attributed to pool %q, want %q", wpe.Pool, pool)
	}
	if len(wpe.Stack) == 0 {
		t.Errorf("pool %s: recovered panic lost its stack", pool)
	}
	if !errors.Is(err, fault.ErrWorkerPanic) {
		t.Errorf("pool %s: errors.Is(err, fault.ErrWorkerPanic) is false", pool)
	}
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("pool %s: injected fault not reachable via errors.As: %v", pool, err)
	}
	if ie.Site != site || ie.Key != key {
		t.Errorf("pool %s: fault = (%s, %d), want (%s, %d)", pool, ie.Site, ie.Key, site, key)
	}
}
