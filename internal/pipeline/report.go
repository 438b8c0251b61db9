package pipeline

import (
	"math"
	"sort"

	"repro/internal/ctmc"
	"repro/internal/noninterference"
	"repro/internal/stats"
)

// Phase1Report is the outcome of the functional phase.
type Phase1Report struct {
	// Result is the noninterference verdict with its diagnostic formula.
	Result *noninterference.Result
	// States and Transitions size the generated state space.
	States, Transitions int
}

// Phase2Report is the outcome of the Markovian phase for one model.
type Phase2Report struct {
	// Values holds the exact steady-state value of every measure.
	Values map[string]float64
	// States, Tangible and Vanishing size the state space and the chain.
	States, Tangible, Vanishing int
	// Trace records what the solver ran for a Phase2 report: the scheme
	// an auto solve actually ran (including a stall-probe upgrade to
	// multilevel), its iterations/cycles and residual, and auto mode's
	// multilevel retry as a second attempt when Gauss-Seidel exhausted
	// its budget (dpmassess solve -stats prints it). Sweep-point reports
	// carry no trace (nil).
	Trace *ctmc.SolveTrace
}

// clone deep-copies a report, so cached results handed out by a Store can
// never be mutated by one caller under another's feet.
func (r *Phase2Report) clone() *Phase2Report {
	if r == nil {
		return nil
	}
	c := &Phase2Report{
		States:    r.States,
		Tangible:  r.Tangible,
		Vanishing: r.Vanishing,
	}
	if r.Values != nil {
		c.Values = make(map[string]float64, len(r.Values))
		for k, v := range r.Values {
			c.Values[k] = v
		}
	}
	if r.Trace != nil {
		t := &ctmc.SolveTrace{Attempts: append([]ctmc.SolveAttempt(nil), r.Trace.Attempts...)}
		c.Trace = t
	}
	return c
}

// Phase3Report is the outcome of the general (simulation) phase for one
// model.
type Phase3Report struct {
	// Estimates holds the confidence interval of every measure.
	Estimates map[string]stats.Interval
	// Events counts fired transitions across replications.
	Events int64
	// Replications is the number of independent runs.
	Replications int
}

// MeasureValidation compares one measure across the Markovian solution and
// the exponential simulation.
type MeasureValidation struct {
	// Name is the measure name.
	Name string
	// Exact is the CTMC value.
	Exact float64
	// Estimate is the simulation confidence interval.
	Estimate stats.Interval
	// WithinCI reports whether the exact value lies inside the interval.
	WithinCI bool
	// RelError is |mean-exact| / max(|exact|, 1e-12).
	RelError float64
}

// ValidationReport is the outcome of the Sect. 5.1 cross-validation.
type ValidationReport struct {
	// PerMeasure lists the per-measure comparisons, sorted by measure
	// name, so the report row order is deterministic run to run.
	PerMeasure []MeasureValidation
	// Consistent is true when every measure is within tolerance: inside
	// its confidence interval or within the relative-error budget.
	Consistent bool
}

// Validate cross-validates a general model against the Markovian one: the
// caller simulates the model with exponential distributions matching the
// Markovian rates and passes both results here. relTolerance bounds the
// accepted relative error when the exact value falls outside the
// confidence interval (the paper accepts small discretization gaps).
// PerMeasure comes back sorted by measure name.
func Validate(exact *Phase2Report, simulated *Phase3Report, relTolerance float64) *ValidationReport {
	names := make([]string, 0, len(exact.Values))
	for name := range exact.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	rep := &ValidationReport{Consistent: true}
	for _, name := range names {
		exactV := exact.Values[name]
		ci, ok := simulated.Estimates[name]
		if !ok {
			continue
		}
		relErr := math.Abs(ci.Mean-exactV) / math.Max(math.Abs(exactV), 1e-12)
		mv := MeasureValidation{
			Name:     name,
			Exact:    exactV,
			Estimate: ci,
			WithinCI: ci.Contains(exactV),
			RelError: relErr,
		}
		if !mv.WithinCI && relErr > relTolerance {
			rep.Consistent = false
		}
		rep.PerMeasure = append(rep.PerMeasure, mv)
	}
	return rep
}
