// Sweep-mode comparison tests live in an external test package: they
// build the paper's rpc and streaming chains through internal/models,
// which ctmc itself cannot import (models → measure → ctmc).
package ctmc_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/models"
)

func rpcChain(t *testing.T) *ctmc.CTMC {
	t.Helper()
	a, err := models.BuildRPCRevised(models.DefaultRPCParams())
	if err != nil {
		t.Fatal(err)
	}
	return chainOf(t, a)
}

func streamingChain(t *testing.T) *ctmc.CTMC {
	t.Helper()
	p := models.DefaultStreamingParams()
	p.APCapacity, p.ClientCapacity = 3, 3
	a, err := models.BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	return chainOf(t, a)
}

func chainOf(t *testing.T, a *aemilia.ArchiType) *ctmc.CTMC {
	t.Helper()
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctmc.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func steadyOrFatal(t *testing.T, c *ctmc.CTMC, opts ctmc.SolveOptions) []float64 {
	t.Helper()
	pi, err := c.SteadyState(opts)
	if err != nil {
		t.Fatalf("SteadyState(%+v): %v", opts, err)
	}
	return pi
}

// TestSweepRejectsUnknownModes pins the input check: every sweep outside
// {auto, gauss-seidel, multilevel} — the retired Jacobi slot included —
// is an error from SteadyState, SteadyStateTraced and SolveBatch alike,
// never a silent Gauss-Seidel solve.
func TestSweepRejectsUnknownModes(t *testing.T) {
	c := rpcParamChain(t)
	entries := map[string]func(ctmc.SolveOptions) error{
		"SteadyState": func(o ctmc.SolveOptions) error {
			_, err := c.SteadyState(o)
			return err
		},
		"SteadyStateTraced": func(o ctmc.SolveOptions) error {
			_, _, err := c.SteadyStateTraced(o)
			return err
		},
		"SolveBatch": func(o ctmc.SolveOptions) error {
			_, err := c.SolveBatch(rpcPoints()[:2], ctmc.BatchOptions{Solve: o})
			return err
		},
	}
	for _, tc := range []struct {
		sweep ctmc.Sweep
		ok    bool
	}{
		{ctmc.SweepAuto, true},
		{ctmc.SweepGaussSeidel, true},
		{ctmc.SweepMultilevel, true},
		{ctmc.SweepJacobi, false},
		{ctmc.Sweep(-1), false},
		{ctmc.SweepMultilevel + 1, false},
	} {
		for name, solve := range entries {
			err := solve(ctmc.SolveOptions{Sweep: tc.sweep})
			if tc.ok && err != nil {
				t.Errorf("%s(%v): %v", name, tc.sweep, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("%s(%v): unknown sweep accepted", name, tc.sweep)
			}
			if !tc.ok && errors.Is(err, ctmc.ErrNoConvergence) {
				t.Errorf("%s(%v): rejection reported as non-convergence: %v", name, tc.sweep, err)
			}
		}
	}
}

// TestAutoRetryTraced pins the trace of auto mode's multilevel retry at a
// budget Gauss-Seidel cannot meet: the first attempt records the failed
// Gauss-Seidel run with its full budget of iterations, the second the
// converged "multilevel-retry", and the result equals an explicit
// multilevel solve at the same budget bit for bit. The quick streaming
// chain plays the part: its 168-state component clears the auto rule's
// 64-state floor, which the 48-state rpc component does not.
func TestAutoRetryTraced(t *testing.T) {
	c := streamingParamChain(t)
	const budget = 80
	pi, trace, err := c.SteadyStateTraced(ctmc.SolveOptions{MaxIterations: budget})
	if err != nil {
		t.Fatalf("auto at %d iterations: %v", budget, err)
	}
	if len(trace.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want the Gauss-Seidel attempt and the retry", trace.Attempts)
	}
	first, retry := trace.Attempts[0], trace.Attempts[1]
	if first.Rung != 0 || first.Action != "base" || first.Sweep != ctmc.SweepGaussSeidel ||
		first.Converged || first.Iterations != budget || first.MaxIterations != budget ||
		!(first.Residual > 0) || math.IsInf(first.Residual, 0) {
		t.Errorf("first attempt = %+v, want the failed Gauss-Seidel run at %d iterations", first, budget)
	}
	if retry.Rung != 1 || retry.Action != "multilevel-retry" || retry.Sweep != ctmc.SweepMultilevel ||
		!retry.Converged || retry.Cycles < 1 || retry.Iterations > budget {
		t.Errorf("retry attempt = %+v, want a converged multilevel run within %d iterations", retry, budget)
	}
	forced, err := c.SteadyState(ctmc.SolveOptions{Sweep: ctmc.SweepMultilevel, MaxIterations: budget})
	if err != nil {
		t.Fatal(err)
	}
	for s := range pi {
		if pi[s] != forced[s] {
			t.Fatalf("state %d: retried %v != explicit multilevel %v", s, pi[s], forced[s])
		}
	}
}
