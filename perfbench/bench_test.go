package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestMain lets the test binary stand in for the benchmark binary when
// set-up starts it with -probe.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-probe" {
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smallEnv is a pass environment at test scale: Quick models and short
// simulations.
func smallEnv(seed uint64) (*env, *countingStore) {
	e, store := newEnv(options{seed: seed, root: "..", workers: 2}, 2)
	e.scale = experiments.Quick
	e.rpcSim.RunLength, e.rpcSim.Replications = 1000, 2
	e.streamSim.RunLength, e.streamSim.Replications = 20000, 2
	return e, store
}

func TestReplayMatchesRunner(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			re, store := smallEnv(paperSeed)
			te, _ := smallEnv(paperSeed)
			te.runner = nil
			te.rp = newReplayer(newRecorder(), te.workers)
			for _, o := range workloads[w] {
				want, err := o.run(re)
				if err != nil {
					t.Fatalf("%s runner: %v", o.name, err)
				}
				re.outputs[o.name] = want
				got, err := o.replay(te)
				if err != nil {
					t.Fatalf("%s replay: %v", o.name, err)
				}
				if got != want {
					t.Errorf("%s: replay differs from runner: %v", o.name, exact(got, want))
				}
			}
			if store.gets.Load() != te.rp.store.gets.Load() || store.hits.Load() != te.rp.store.hits.Load() {
				t.Errorf("store traffic: runner %d gets %d hits, replay %d gets %d hits",
					store.gets.Load(), store.hits.Load(), te.rp.store.gets.Load(), te.rp.store.hits.Load())
			}
		})
	}
}

func TestSeedReachesSimSettings(t *testing.T) {
	o, err := parseOptions([]string{"--workload", "general", "--seed", "7"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newEnv(o, 2)
	if e.rpcSim.Seed != 7 || e.streamSim.Seed != 7 {
		t.Fatalf("seed 7 reached SimSettings as %d and %d", e.rpcSim.Seed, e.streamSim.Seed)
	}
	o, err = parseOptions([]string{"--workload", "general"}, &bytes.Buffer{})
	if err != nil || o.seed != paperSeed {
		t.Fatalf("default seed %d (%v), want the paper's %d", o.seed, err, paperSeed)
	}
	fig5 := func(seed uint64) string {
		e, _ := smallEnv(seed)
		out, err := runFig5(e)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if fig5(1) != fig5(1) {
		t.Error("the same seed gave different outputs")
	}
	if fig5(1) == fig5(2) {
		t.Error("seeds 1 and 2 gave the same simulated output")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type benchDef struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchDef {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchDef
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runResult runs the benchmark in-process and decodes its last line.
func runResult(t *testing.T, args ...string) result {
	var stdout, stderr bytes.Buffer
	args = append(args, "--root", "..", "--trace-out", filepath.Join(t.TempDir(), "trace.json"))
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("result %+v: %s", r, stderr.String())
	}
	return r
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef, printed map[string]metric) {
		if len(listed) != len(defs) || len(printed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d, the code defines %d, a run printed %d", kind, len(listed), len(defs), len(printed))
		}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if i < len(listed) && (listed[i].Name != d.name || listed[i].Unit != d.unit) {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the code %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
			if p, ok := printed[d.name]; !ok || p.Unit != d.unit {
				t.Errorf("%s: printed %s as %+v, want unit %s", kind, d.name, p, d.unit)
			}
		}
	}
	timed := runResult(t, "--workload", "cold_solve", "--seconds", "0.01", "--trace", "0")
	check("end_to_end", b.EndToEnd, endToEnd, timed.Metrics)
	traced := runResult(t, "--workload", "cold_solve", "--trace", "1")
	check("per_layer", b.PerLayer, perLayer(), traced.Metrics)
}

// sections splits a study output into its "== ... ==" sections.
func sections(text string) map[string]string {
	out := make(map[string]string)
	var header string
	var sb strings.Builder
	flush := func() {
		if header != "" {
			out[header] = sb.String()
		}
		sb.Reset()
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "== ") {
			flush()
			header = strings.TrimSpace(line)
		}
		sb.WriteString(line)
	}
	flush()
	return out
}

// TestReferencesMatchStudyOutputs pins the references of the workloads
// that run at the paper's settings to the committed study outputs.
func TestReferencesMatchStudyOutputs(t *testing.T) {
	read := func(path string) string {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	rpc := sections(read("../results/rpcstudy_full.txt"))
	streaming := sections(read("../results/streamingstudy_full.txt"))
	for _, c := range []struct {
		section string
		study   map[string]string
		refs    []string
	}{
		{hdrSect3RPC, rpc, []string{"functional/sect3_rpc_simplified", "functional/sect3_rpc_revised"}},
		{hdrSect3Stream, streaming, []string{"functional/sect3_streaming"}},
		{hdrFig3Markov, rpc, []string{"markovian/fig3markov"}},
		{hdrPolicies, rpc, []string{"markovian/policies"}},
		{hdrBattery, rpc, []string{"markovian/battery"}},
		{hdrFig4, streaming, []string{"markovian/fig4"}},
		{hdrTransient, streaming, []string{"markovian/transient"}},
	} {
		var got string
		for _, r := range c.refs {
			got += read(filepath.Join("ref", r+".txt"))
		}
		if got != c.study[c.section] {
			t.Errorf("%s: references differ from the study output: %v", c.section, exact(got, c.study[c.section]))
		}
	}
}

// TestGeneralCheckAtUnpinnedSeed runs the general workload at a seed with
// no stored digest: the shape and consistency checks must accept it and
// reject a changed Markovian cell.
func TestGeneralCheckAtUnpinnedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full general pass")
	}
	refs, err := loadReferences("..", "general")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11
	if _, pinned := refs.digests[seed]; pinned {
		t.Fatalf("seed %d is pinned by digest", seed)
	}
	e, _ := newEnv(options{seed: seed, root: "..", workers: 2}, 2)
	for _, o := range workloads["general"] {
		out, err := o.run(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := refs.check("general", o.name, seed, out, e.outputs); err != nil {
			t.Errorf("%s: %v", o.name, err)
		}
		e.outputs[o.name] = out
	}
	bad := strings.Replace(e.outputs["fig7"], "4.13588", "4.13589", 1)
	if err := refs.check("general", "fig7", seed, bad, e.outputs); err == nil {
		t.Error("a changed Markovian cell of fig7 passed the check")
	}
}
