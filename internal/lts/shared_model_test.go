package lts_test

import (
	"sync"
	"testing"

	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/rates"
)

// ltsFingerprint renders the full structure of an LTS — initial state,
// state count, and every (src, label-name, dst, rate) edge in canonical
// order — so two generations can be compared for exact equality.
func ltsFingerprint(l *lts.LTS) []string {
	out := []string{
		"initial=" + l.StateDesc(l.Initial),
	}
	l.Edges(func(src, dst, label int, r rates.Rate) {
		out = append(out, l.StateDesc(src)+" -"+l.LabelName(label)+","+r.String()+"-> "+l.StateDesc(dst))
	})
	return out
}

// TestSharedModelGenerationDeterministic is the interner-determinism
// guarantee under concurrency: many goroutines generating from one shared
// (immutable) elaborated model must observe the exact same state
// identifiers — state i means the same global state in every sweep — and
// the same canonical transition structure. Run with -race, this also
// proves generation performs no hidden writes to the shared model.
func TestSharedModelGenerationDeterministic(t *testing.T) {
	a, err := models.BuildRPCRevised(models.DefaultRPCParams())
	if err != nil {
		t.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	prints := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l, err := lts.Generate(m, lts.GenerateOptions{})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			prints[w] = ltsFingerprint(l)
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		if len(prints[w]) != len(prints[0]) {
			t.Fatalf("worker %d: %d fingerprint lines, worker 0 has %d",
				w, len(prints[w]), len(prints[0]))
		}
		for i := range prints[w] {
			if prints[w][i] != prints[0][i] {
				t.Fatalf("worker %d line %d differs:\n  %s\nvs\n  %s",
					w, i, prints[w][i], prints[0][i])
			}
		}
	}
}

// TestRegenerationIDStability: generating twice from the same model (even
// sequentially, with fresh interners) assigns every state the same id,
// observable through identical state descriptions per index.
func TestRegenerationIDStability(t *testing.T) {
	p := models.DefaultStreamingParams()
	arch, err := models.BuildStreaming(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := elab.Elaborate(arch)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l1.NumStates != l2.NumStates || l1.NumTransitions() != l2.NumTransitions() {
		t.Fatalf("shape differs across regenerations: %d/%d vs %d/%d",
			l1.NumStates, l1.NumTransitions(), l2.NumStates, l2.NumTransitions())
	}
	for s := 0; s < l1.NumStates; s++ {
		if l1.StateDesc(s) != l2.StateDesc(s) {
			t.Fatalf("state %d names different global states across runs:\n  %s\nvs\n  %s",
				s, l1.StateDesc(s), l2.StateDesc(s))
		}
	}
}
