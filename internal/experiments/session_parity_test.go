package experiments

import (
	"reflect"
	"testing"

	"repro/internal/pipeline"
)

// TestSessionPathMatchesLegacyAcrossWorkersAndLanes is the bit-identity
// contract of the session layer: a Runner at any workers × lanes
// combination, result store enabled, must produce byte-for-byte the
// results of the sequential per-point baseline ({Workers: 1, LaneWidth:
// 1}, no store) on both study models.
func TestSessionPathMatchesLegacyAcrossWorkersAndLanes(t *testing.T) {
	timeouts := []float64{0.5, 5, 25}
	periods := []float64{50, 400}

	baseline := NewRunner(pipeline.Config{Workers: 1, LaneWidth: 1})
	wantRPC, err := baseline.Fig3Markov(timeouts)
	if err != nil {
		t.Fatalf("baseline Fig3Markov: %v", err)
	}
	wantStreaming, err := baseline.Fig4Markov(periods, Quick)
	if err != nil {
		t.Fatalf("baseline Fig4Markov: %v", err)
	}

	for _, workers := range []int{1, 8} {
		for _, lanes := range []int{1, 8} {
			r := NewRunner(pipeline.Config{
				Workers:   workers,
				LaneWidth: lanes,
				Store:     pipeline.NewMemoryStore(),
			})
			gotRPC, err := r.Fig3Markov(timeouts)
			if err != nil {
				t.Fatalf("workers=%d lanes=%d: Fig3Markov: %v", workers, lanes, err)
			}
			if !reflect.DeepEqual(gotRPC, wantRPC) {
				t.Errorf("workers=%d lanes=%d: rpc session path diverged from baseline:\n got %+v\nwant %+v",
					workers, lanes, gotRPC, wantRPC)
			}
			gotStreaming, err := r.Fig4Markov(periods, Quick)
			if err != nil {
				t.Fatalf("workers=%d lanes=%d: Fig4Markov: %v", workers, lanes, err)
			}
			if !reflect.DeepEqual(gotStreaming, wantStreaming) {
				t.Errorf("workers=%d lanes=%d: streaming session path diverged from baseline:\n got %+v\nwant %+v",
					workers, lanes, gotStreaming, wantStreaming)
			}
		}
	}
}
