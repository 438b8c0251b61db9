package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/fault"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// rpcSpec is the canonical spec of the revised rpc model at the given
// parameters, the same shape internal/experiments builds.
func rpcSpec(p models.RPCParams) pipeline.Spec {
	return pipeline.Spec{
		Key:      fmt.Sprintf("rpc:%#v", p),
		Build:    func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(p) },
		Measures: models.RPCMeasures(p),
	}
}

// TestManagerReusesStagedArtifacts opens two handles on the same spec —
// with different scheduling configs — and checks they share one set of
// staged artifacts: the second Phase2 does no generation and the model,
// LTS and chain are pointer-identical.
func TestManagerReusesStagedArtifacts(t *testing.T) {
	p := models.DefaultRPCParams()
	mgr := pipeline.NewManager()

	s1, err := mgr.Open(rpcSpec(p), pipeline.Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rep1, err := s1.Phase2()
	if err != nil {
		t.Fatalf("Phase2: %v", err)
	}
	calls := lts.GenerateCalls()

	// Different workers/lanes: scheduling only, must intern onto the same
	// session state.
	s2, err := mgr.Open(rpcSpec(p), pipeline.Config{Workers: 8, LaneWidth: 8})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s1.SpecHash() != s2.SpecHash() {
		t.Fatalf("spec hashes differ: %s vs %s", s1.SpecHash(), s2.SpecHash())
	}
	if mgr.Len() != 1 {
		t.Fatalf("manager interned %d states, want 1", mgr.Len())
	}

	m1, err := s1.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	m2, err := s2.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	if m1 != m2 {
		t.Fatalf("elaborated models not shared across handles")
	}
	l1, _ := s1.LTS()
	l2, _ := s2.LTS()
	if l1 != l2 {
		t.Fatalf("LTS not shared across handles")
	}
	c1, _ := s1.Chain()
	c2, _ := s2.Chain()
	if c1 != c2 {
		t.Fatalf("chain not shared across handles")
	}

	rep2, err := s2.Phase2()
	if err != nil {
		t.Fatalf("Phase2: %v", err)
	}
	if d := lts.GenerateCalls() - calls; d != 0 {
		t.Fatalf("second handle regenerated the state space (%d extra Generate calls)", d)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("shared-state reports differ:\n%+v\n%+v", rep1, rep2)
	}

	// Reports are private copies: mutating one must not leak into the next.
	for k := range rep2.Values {
		rep2.Values[k] = -1
	}
	rep3, err := s1.Phase2()
	if err != nil {
		t.Fatalf("Phase2: %v", err)
	}
	if reflect.DeepEqual(rep2, rep3) {
		t.Fatalf("Phase2 handed out a shared Values map")
	}
}

// TestStoreHitMatchesFreshSolve runs Phase2 through a MemoryStore twice
// — the second time from a cold session that can only answer from the
// store — and checks the cached report deep-equals the fresh solve and
// that the hit did no generation.
func TestStoreHitMatchesFreshSolve(t *testing.T) {
	p := models.DefaultRPCParams()
	store := pipeline.NewMemoryStore()

	fresh := pipeline.NewSession(rpcSpec(p), pipeline.Config{Workers: 1, Store: store})
	rep1, err := fresh.Phase2()
	if err != nil {
		t.Fatalf("fresh Phase2: %v", err)
	}
	if store.Len() == 0 {
		t.Fatalf("Phase2 did not populate the store")
	}

	calls := lts.GenerateCalls()
	cold := pipeline.NewSession(rpcSpec(p), pipeline.Config{Workers: 1, Store: store})
	rep2, err := cold.Phase2()
	if err != nil {
		t.Fatalf("cached Phase2: %v", err)
	}
	if d := lts.GenerateCalls() - calls; d != 0 {
		t.Fatalf("store hit still generated the state space (%d Generate calls)", d)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("cached report differs from fresh solve:\n%+v\n%+v", rep1, rep2)
	}

	// A hit hands out a private clone: corrupting it must not poison the
	// store for the next caller.
	for k := range rep2.Values {
		rep2.Values[k] = -1
	}
	rep3, err := pipeline.NewSession(rpcSpec(p), pipeline.Config{Workers: 1, Store: store}).Phase2()
	if err != nil {
		t.Fatalf("Phase2: %v", err)
	}
	if !reflect.DeepEqual(rep1, rep3) {
		t.Fatalf("store entry was mutated through a handed-out report")
	}
}

// TestSessionSingleFlight has concurrent callers open the same spec key
// on one manager and solve: the build must run exactly once (one
// Generate call) and every caller must see the identical report.
func TestSessionSingleFlight(t *testing.T) {
	p := models.DefaultRPCParams()
	mgr := pipeline.NewManager()
	start := lts.GenerateCalls()

	const n = 8
	reports := make([]*pipeline.Phase2Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := mgr.Open(rpcSpec(p), pipeline.Config{Workers: 1})
			if err != nil {
				errs[i] = err
				return
			}
			reports[i], errs[i] = s.Phase2()
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if d := lts.GenerateCalls() - start; d != 1 {
		t.Fatalf("single-flight failed: %d Generate calls for one spec key, want 1", d)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("caller %d saw a different report:\n%+v\n%+v", i, reports[0], reports[i])
		}
	}
}

// TestStageLatchesFailuresNotCancellations pins the stage latch: a failing
// Spec.Build runs once and every later Model/Phase2 caller, on any handle
// from the same Manager, gets the same error; a build canceled through
// Config.Ctx is not latched, so the next caller, with a live context,
// becomes the new builder and succeeds.
func TestStageLatchesFailuresNotCancellations(t *testing.T) {
	mgr := pipeline.NewManager()
	boom := errors.New("boom")
	var builds atomic.Int32
	failing := pipeline.Spec{Key: "failing", Build: func() (*aemilia.ArchiType, error) {
		builds.Add(1)
		return nil, boom
	}}
	for i := 0; i < 3; i++ {
		s, err := mgr.Open(failing, pipeline.Config{Workers: i + 1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if _, err := s.Model(); !errors.Is(err, boom) {
			t.Fatalf("handle %d: Model err = %v, want boom", i, err)
		}
		if _, err := s.Phase2(); !errors.Is(err, boom) {
			t.Fatalf("handle %d: Phase2 err = %v, want boom", i, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("failing build ran %d times, want 1", n)
	}

	spec := rpcSpec(models.DefaultRPCParams())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s1, err := mgr.Open(spec, pipeline.Config{Workers: 1, Ctx: ctx})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ce *fault.CanceledError
	if _, err := s1.Phase2(); !errors.As(err, &ce) {
		t.Fatalf("canceled Phase2 err = %v, want *fault.CanceledError", err)
	}
	s2, err := mgr.Open(spec, pipeline.Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s2.Phase2(); err != nil {
		t.Fatalf("Phase2 after a canceled build: %v", err)
	}
}

// TestManagerRejectsEphemeralSpec: an empty Key cannot be interned.
func TestManagerRejectsEphemeralSpec(t *testing.T) {
	spec := rpcSpec(models.DefaultRPCParams())
	spec.Key = ""
	if _, err := pipeline.NewManager().Open(spec, pipeline.Config{}); err == nil {
		t.Fatalf("Open accepted an ephemeral spec (empty Key)")
	}
}

// TestSpecHashIgnoresScheduling checks the content address excludes
// scheduling-only knobs (workers, contexts) and includes everything that
// can change a result's bits.
func TestSpecHashIgnoresScheduling(t *testing.T) {
	p := models.DefaultRPCParams()
	base := rpcSpec(p)

	sched := base
	sched.Gen.GenWorkers = 8
	sched.Solve.Workers = 8
	if base.Hash() != sched.Hash() {
		t.Fatalf("worker counts changed the spec hash")
	}

	tol := base
	tol.Solve.Tolerance = 1e-6
	if base.Hash() == tol.Hash() {
		t.Fatalf("solver tolerance did not change the spec hash")
	}

	meas := base
	meas.Measures = meas.Measures[:len(meas.Measures)-1]
	if base.Hash() == meas.Hash() {
		t.Fatalf("measure set did not change the spec hash")
	}

	key := base
	key.Key = "rpc:other"
	if base.Hash() == key.Hash() {
		t.Fatalf("spec key did not change the spec hash")
	}

	pred := base
	pred.Gen.Predicates = append([]lts.StatePred(nil), pred.Gen.Predicates...)
	pred.Gen.Predicates = append(pred.Gen.Predicates, lts.StatePred{Instance: "X", Action: "y"})
	if base.Hash() == pred.Hash() {
		t.Fatalf("generation predicates did not change the spec hash")
	}

	ml := base
	ml.Solve.Sweep = ctmc.SweepMultilevel
	if base.Hash() == ml.Hash() {
		t.Fatalf("multilevel sweep mode did not change the spec hash")
	}
}

// TestAutoSolveWorkerInvariant pins that an auto steady-state solve is a
// pure function of the spec: two fresh sessions (no shared Manager) on the
// Full streaming Markovian model, one at Config{Workers: 1} and one at
// Config{Workers: 2}, report bit-identical Phase2 values, and their chains
// solve to bit-identical steady-state vectors with the solver's
// deprecated Workers knob set to each count.
func TestAutoSolveWorkerInvariant(t *testing.T) {
	p := models.DefaultStreamingParams()
	spec := pipeline.Spec{
		Key:      fmt.Sprintf("streaming:%#v", p),
		Build:    func() (*aemilia.ArchiType, error) { return models.BuildStreaming(p) },
		Measures: models.StreamingMeasures(p),
	}
	var (
		values []map[string]float64
		pis    [][]float64
	)
	for _, workers := range []int{1, 2} {
		s := pipeline.NewSession(spec, pipeline.Config{Workers: workers})
		rep, err := s.Phase2()
		if err != nil {
			t.Fatalf("workers=%d: Phase2: %v", workers, err)
		}
		chain, err := s.Chain()
		if err != nil {
			t.Fatalf("workers=%d: Chain: %v", workers, err)
		}
		pi, err := chain.SteadyState(ctmc.SolveOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: SteadyState: %v", workers, err)
		}
		values = append(values, rep.Values)
		pis = append(pis, pi)
	}
	for name, v := range values[0] {
		if w := values[1][name]; math.Float64bits(w) != math.Float64bits(v) {
			t.Errorf("measure %s: workers=1 %v, workers=2 %v (must be bit-identical)", name, v, w)
		}
	}
	if len(pis[0]) != len(pis[1]) {
		t.Fatalf("steady-state lengths differ: %d vs %d", len(pis[0]), len(pis[1]))
	}
	diff := 0
	for s := range pis[0] {
		if math.Float64bits(pis[0][s]) != math.Float64bits(pis[1][s]) {
			diff++
		}
	}
	if diff > 0 {
		t.Errorf("steady state differs in %d of %d entries between workers 1 and 2", diff, len(pis[0]))
	}
}
