package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the reference outputs under ref/ from the Runner path")

// digestSeeds are the seeds, besides the paper's, whose general outputs
// are pinned by digest.
var digestSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// TestUpdateReferences regenerates ref/ when run with -update.
func TestUpdateReferences(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate the references")
	}
	for _, w := range workloadNames {
		o := options{workload: w, seed: paperSeed, root: "..", workers: 2}
		e, _ := newEnv(o, o.workers)
		dir := refDir(o.root, w)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, op := range workloads[w] {
			out, err := op.run(e)
			if err != nil {
				t.Fatalf("%s: %s: %v", w, op.name, err)
			}
			e.outputs[op.name] = out
			if err := os.WriteFile(filepath.Join(dir, op.name+".txt"), []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if w != "general" {
			continue
		}
		var sb strings.Builder
		for _, seed := range digestSeeds {
			o.seed = seed
			e, _ := newEnv(o, o.workers)
			for _, op := range workloads[w] {
				out, err := op.run(e)
				if err != nil {
					t.Fatalf("%s seed %d: %s: %v", w, seed, op.name, err)
				}
				fmt.Fprintf(&sb, "%d %s %s\n", seed, op.name, digest(out))
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "digests.txt"), []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
