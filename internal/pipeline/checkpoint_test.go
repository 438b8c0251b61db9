package pipeline

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/ctmc"
)

// TestCheckpointEncodeDecodeRoundTrip pins the binary format: every field
// — values, anchor bits, traces, flags — survives a round trip exactly.
func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	orig := &checkpoint{
		hash:      0xdeadbeefcafe,
		numPoints: 5,
		anchorPi:  []float64{0.125, 0.875, 1e-300},
		completed: map[int]*Phase2Report{
			0: {Values: map[string]float64{"util": 0.5, "power": 1.25}},
			3: {
				Values: map[string]float64{"util": 0.375},
				Trace: &ctmc.SolveTrace{Attempts: []ctmc.SolveAttempt{
					{Rung: 0, Action: "base", Sweep: ctmc.SweepGaussSeidel,
						MaxIterations: 100, WarmStart: true, Iterations: 100, Residual: 0.5},
					{Rung: 1, Action: "multilevel-retry", Sweep: ctmc.SweepMultilevel,
						MaxIterations: 100, WarmStart: true, Converged: true},
				}},
			},
		},
	}
	report := func(values map[string]float64) *Phase2Report { return &Phase2Report{Values: values} }
	got, err := decodeCheckpoint(encodeCheckpoint(orig), report)
	if err != nil {
		t.Fatal(err)
	}
	if got.hash != orig.hash || got.numPoints != orig.numPoints {
		t.Errorf("header changed: %x/%d vs %x/%d", got.hash, got.numPoints, orig.hash, orig.numPoints)
	}
	if !reflect.DeepEqual(got.anchorPi, orig.anchorPi) {
		t.Errorf("anchor changed: %v vs %v", got.anchorPi, orig.anchorPi)
	}
	if !reflect.DeepEqual(got.completed, orig.completed) {
		t.Errorf("completed set changed:\n got %+v\n want %+v", got.completed, orig.completed)
	}
	// Determinism of the encoding itself (sorted maps): same content, same
	// bytes.
	a, b := encodeCheckpoint(orig), encodeCheckpoint(orig)
	if !reflect.DeepEqual(a, b) {
		t.Error("encoding is not deterministic")
	}
	// Truncation at any point must be caught.
	enc := encodeCheckpoint(orig)
	if _, err := decodeCheckpoint(enc[:len(enc)-3], report); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("truncated checkpoint decoded: %v", err)
	}
	if _, err := decodeCheckpoint([]byte("not a checkpoint"), report); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("garbage decoded: %v", err)
	}
}
