package ctmc

import "errors"

// Escalation is the type of the deprecated SolveOptions.Escalation field.
//
// Deprecated: the escalation ladder is gone and nothing reads the field.
type Escalation int

// EscalateNever is the zero Escalation.
//
// Deprecated: it has no effect; see SolveOptions.Escalation.
const EscalateNever Escalation = 0

// SolveAttempt records one scheme run of a steady-state solve.
type SolveAttempt struct {
	// Rung is the attempt's position: 0 for the first attempt, 1 for auto
	// mode's multilevel retry.
	Rung int
	// Action names the attempt: "base" for the configured scheme,
	// "multilevel-retry" for auto mode's retry after a Gauss-Seidel solve
	// exhausted its budget.
	Action string
	// Sweep and MaxIterations are the attempt's resolved solver
	// configuration (Sweep is never SweepAuto).
	Sweep         Sweep
	MaxIterations int
	// WarmStart reports whether the attempt was seeded from a warm start.
	WarmStart bool
	// Converged reports whether the attempt succeeded.
	Converged bool
	// Iterations and Residual are the attempt's final iteration count and
	// residual — the failure point of a failed attempt, the convergence
	// point of a successful one.
	Iterations int
	Residual   float64
	// Cycles is the attempt's outer multilevel cycle count (zero for
	// Gauss-Seidel, which has no outer loop).
	Cycles int
}

// SolveTrace is the attempt history of one steady-state solve.
type SolveTrace struct {
	// Attempts lists every attempt in order; Attempts[0] is the configured
	// scheme's.
	Attempts []SolveAttempt
}

// ResolveSolve reports the configuration a SteadyState call with these
// options starts from: defaults filled and SweepAuto resolved to its first
// rule, Gauss-Seidel. The stall probe is not run here — an auto solve that
// upgrades to multilevel, or retries with it, reports that through the
// trace, whose attempts always carry the scheme that actually ran.
func (c *CTMC) ResolveSolve(opts SolveOptions) (SolveOptions, error) {
	if err := checkSweep(opts.Sweep); err != nil {
		return opts, err
	}
	opts = solveDefaults(opts)
	if _, err := c.ensurePlan(); err != nil {
		return opts, err
	}
	opts.Sweep = resolveSweep(opts.Sweep)
	return opts, nil
}

// attemptRecord summarizes one scheme run for the trace. On success the
// statistics come from the solver's own report; on failure from the
// convergence error.
func attemptRecord(rung int, action string, sweep Sweep, cfg SolveOptions, st solveStats, err error) SolveAttempt {
	a := SolveAttempt{
		Rung:          rung,
		Action:        action,
		Sweep:         sweep,
		MaxIterations: cfg.MaxIterations,
		WarmStart:     len(cfg.WarmStart) > 0,
		Converged:     err == nil,
	}
	if err == nil {
		a.Iterations = st.Iterations
		a.Residual = st.Residual
		a.Cycles = st.Cycles
		return a
	}
	var ce *ConvergenceError
	if errors.As(err, &ce) {
		a.Iterations = ce.Iterations
		a.Residual = ce.Residual
		a.Cycles = ce.Cycles
	}
	return a
}
