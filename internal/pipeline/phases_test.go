package pipeline_test

import (
	"strings"
	"testing"

	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/noninterference"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// rpcNISpec is the Sect. 3.1 noninterference check of the rpc model.
func rpcNISpec() noninterference.Spec {
	return noninterference.Spec{
		High: lts.LabelMatcherByNames(models.RPCHighLabels()...),
		Low:  lts.LabelMatcherByInstance("C"),
	}
}

func TestPhase1EndToEnd(t *testing.T) {
	s := pipeline.NewSession(pipeline.Spec{Build: models.BuildRPCSimplified}, pipeline.Config{})
	rep, err := s.Phase1(rpcNISpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Transparent {
		t.Error("simplified rpc should fail phase 1")
	}
	if rep.States == 0 || rep.Transitions == 0 {
		t.Error("phase 1 should report the state space size")
	}
}

func TestPhase2EndToEnd(t *testing.T) {
	rep, err := pipeline.NewSession(rpcSpec(models.DefaultRPCParams()), pipeline.Config{}).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"throughput", "waiting_time", "energy"} {
		v, ok := rep.Values[name]
		if !ok {
			t.Fatalf("measure %s missing", name)
		}
		if v <= 0 {
			t.Errorf("measure %s = %v, want positive", name, v)
		}
	}
	if rep.Tangible == 0 || rep.Vanishing == 0 || rep.States != rep.Tangible+rep.Vanishing {
		t.Errorf("state accounting wrong: %d states, %d tangible, %d vanishing",
			rep.States, rep.Tangible, rep.Vanishing)
	}
}

func TestPhase2RejectsFunctionalModel(t *testing.T) {
	p := models.DefaultRPCParams()
	p.Mode = models.Functional
	_, err := pipeline.NewSession(rpcSpec(p), pipeline.Config{}).Phase2()
	if err == nil {
		t.Fatal("an untimed model must be rejected by the Markovian phase")
	}
	if !strings.Contains(err.Error(), "not fully rated") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPhase3AndValidation(t *testing.T) {
	p := models.DefaultRPCParams()
	p.ShutdownTimeout = 5
	s := pipeline.NewSession(rpcSpec(p), pipeline.Config{})
	exact, err := s.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the general model with exponential distributions — the
	// paper's Sect. 5.1 cross-validation.
	simRep, err := s.Phase3(models.RPCExponentialDistributions(p),
		pipeline.SimSettings{RunLength: 8000, Warmup: 200, Replications: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if simRep.Events == 0 || simRep.Replications != 10 {
		t.Errorf("phase 3 bookkeeping wrong: %+v", simRep)
	}
	val := pipeline.Validate(exact, simRep, 0.05)
	if len(val.PerMeasure) != 3 {
		t.Fatalf("validated %d measures, want 3", len(val.PerMeasure))
	}
	if !val.Consistent {
		for _, mv := range val.PerMeasure {
			t.Logf("%s: exact %v sim %v withinCI %t relErr %v",
				mv.Name, mv.Exact, mv.Estimate, mv.WithinCI, mv.RelError)
		}
		t.Error("exponential simulation should validate against the CTMC")
	}
}

// makeEstimates builds an estimate map from {name: {mean, halfwidth}}.
func makeEstimates(src map[string][2]float64) map[string]stats.Interval {
	out := make(map[string]stats.Interval, len(src))
	for name, mh := range src {
		out[name] = stats.Interval{Mean: mh[0], HalfWidth: mh[1], Level: 0.9, N: 30}
	}
	return out
}

func TestValidateFlagsInconsistency(t *testing.T) {
	exact := &pipeline.Phase2Report{Values: map[string]float64{"m": 1.0, "skipped": 2}}
	sim := &pipeline.Phase3Report{}
	sim.Estimates = makeEstimates(map[string][2]float64{"m": {2.0, 0.01}})
	rep := pipeline.Validate(exact, sim, 0.05)
	if rep.Consistent {
		t.Error("100% relative error must be inconsistent")
	}
	if len(rep.PerMeasure) != 1 {
		t.Errorf("measures without estimates should be skipped: %+v", rep.PerMeasure)
	}
	// Within tolerance passes even outside the CI.
	sim.Estimates = makeEstimates(map[string][2]float64{"m": {1.01, 0.001}})
	rep = pipeline.Validate(exact, sim, 0.05)
	if !rep.Consistent {
		t.Error("1% relative error within a 5% budget must be consistent")
	}
}
