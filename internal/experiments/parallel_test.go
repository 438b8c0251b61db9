package experiments

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/pipeline"
)

func TestRunPointsPreservesOrder(t *testing.T) {
	points := []int{10, 20, 30, 40, 50, 60, 70}
	for _, workers := range []int{1, 3, 16} {
		out, err := RunPoints(points, workers, func(p int) (int, error) {
			return p * 2, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := []int{20, 40, 60, 80, 100, 120, 140}
		if !reflect.DeepEqual(out, want) {
			t.Errorf("workers=%d: out = %v, want %v", workers, out, want)
		}
	}
}

func TestRunPointsFailFast(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := RunPoints([]int{0, 1, 2, 3, 4, 5}, workers, func(p int) (int, error) {
			if p >= 2 {
				return 0, boom
			}
			return p, nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

func TestRunPointsEmpty(t *testing.T) {
	out, err := RunPoints(nil, 8, func(p int) (int, error) { return p, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty sweep: out=%v err=%v", out, err)
	}
}

// TestFig3GeneralWorkerDeterminism is the tentpole's acceptance check:
// the same seed produces identical sweep output at workers=1 and
// workers=8, both across sweep points and across the replications inside
// each point.
func TestFig3GeneralWorkerDeterminism(t *testing.T) {
	run := func(workers int) []RPCPoint {
		pts, err := newRunner().Fig3General([]float64{2, 10, 20}, pipeline.SimSettings{
			RunLength: 600, Replications: 4, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig3General differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFig5ValidationWorkerDeterminism covers the mixed analytic+simulated
// sweep: CTMC solutions and simulation estimates must both be identical
// at any worker count.
func TestFig5ValidationWorkerDeterminism(t *testing.T) {
	run := func(workers int) []ValidationPoint {
		pts, err := newRunner().Fig5Validation([]float64{5, 20}, pipeline.SimSettings{
			RunLength: 1000, Replications: 3, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig5Validation differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFig4MarkovWorkerDeterminism pins the pure-Markovian sweep path
// (RunPoints + cached models, no simulation) to the same contract.
func TestFig4MarkovWorkerDeterminism(t *testing.T) {
	run := func(workers int) []StreamingPoint {
		pts, err := NewRunner(pipeline.Config{Workers: workers}).Fig4Markov([]float64{50, 200, 400}, Quick)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig4Markov differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", seq, par)
	}
}
