package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/aemilia/parser"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/experiments"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/pipeline"
)

// paperSeed is the simulation seed of the paper's figures (DSN 2004).
const paperSeed = 20040628

// The general workload shortens the paper's simulations uniformly: every
// run length is a quarter of the paper's and every point runs 8
// replications instead of 30. Warm-ups, model scale, sweep grids and the
// Fig. 7/8 re-simulation of Fig. 3/6 are the paper's.
const (
	runLengthShare = 0.25
	replications   = 8
)

// simSettings returns the general workload's settings for the rpc and the
// streaming studies: the paper's run lengths (20000 and 400000 ms) and
// warm-ups (500 and 2000 ms), shortened as above.
func simSettings(seed uint64, workers int) (rpc, streaming pipeline.SimSettings) {
	rpc = pipeline.SimSettings{RunLength: 20000 * runLengthShare, Warmup: 500,
		Replications: replications, Seed: seed, Workers: workers}
	streaming = pipeline.SimSettings{RunLength: 400000 * runLengthShare, Warmup: 2000,
		Replications: replications, Seed: seed, Workers: workers}
	return rpc, streaming
}

// env is what one pass's operations run against: a fresh Runner (with its
// own Store and sessions) on the Runner path, or a replayer on the traced
// path.
type env struct {
	root      string // repository root: holds specs/
	workers   int
	scale     experiments.Scale // Full; the tests use Quick
	runner    *experiments.Runner
	rp        *replayer // nil on the Runner path
	rpcSim    pipeline.SimSettings
	streamSim pipeline.SimSettings
	outputs   map[string]string // this pass's outputs so far, by operation
}

// op is one operation of a workload: one experiment call (one solve on
// cold_solve). Both paths must print the same bytes.
type op struct {
	name   string
	run    func(e *env) (string, error)
	replay func(e *env) (string, error)
}

// workloads lists each workload's operations in the order the study
// CLIs run them.
var workloads = map[string][]op{
	"functional": {
		{"sect3_rpc_simplified", runSect3RPCSimplified, replaySect3RPCSimplified},
		{"sect3_rpc_revised", runSect3RPCRevised, replaySect3RPCRevised},
		{"sect3_streaming", runSect3Streaming, replaySect3Streaming},
	},
	"markovian": {
		{"fig3markov", runFig3Markov, replayFig3Markov},
		{"policies", runPolicies, replayPolicies},
		{"battery", runBattery, replayBattery},
		{"fig4", runFig4, replayFig4},
		{"transient", runTransient, replayTransient},
	},
	"general": {
		{"fig3general", runFig3General, replayFig3General},
		{"fig5", runFig5, replayFig5},
		{"fig7", runFig7, replayFig7},
		{"fig6", runFig6, replayFig6},
		{"fig8", runFig8, replayFig8},
	},
	"cold_solve": {
		{"solve_rpc_full", solveOp("rpc_revised_markov.aem", "rpc.msr", false), replaySolveOp("rpc_revised_markov.aem", "rpc.msr", false)},
		{"solve_rpc_minimize", solveOp("rpc_revised_markov.aem", "rpc.msr", true), replaySolveOp("rpc_revised_markov.aem", "rpc.msr", true)},
		{"solve_streaming_full", solveOp("streaming_markov.aem", "streaming.msr", false), replaySolveOp("streaming_markov.aem", "streaming.msr", false)},
		{"solve_streaming_minimize", solveOp("streaming_markov.aem", "streaming.msr", true), replaySolveOp("streaming_markov.aem", "streaming.msr", true)},
	},
}

// workloadNames is the fixed workload order.
var workloadNames = []string{"functional", "markovian", "general", "cold_solve"}

// Section headers, exactly as rpcstudy and streamingstudy print them.
const (
	hdrSect3RPC    = "== Sect. 3.1: noninterference =="
	hdrSect3Stream = "== Sect. 3.2: noninterference =="
	hdrFig3Markov  = "== Fig. 3 (left): Markovian rpc comparison =="
	hdrFig3General = "== Fig. 3 (right): general rpc comparison (deterministic timings) =="
	hdrFig5        = "== Fig. 5: validation of the general model (exponential durations) =="
	hdrPolicies    = "== Extension: DPM policy ablation (Markovian, timeout/period 5 ms) =="
	hdrBattery     = "== Extension: battery lifetime (transient analysis, budget 5000) =="
	hdrFig7        = "== Fig. 7: energy/waiting-time trade-off =="
	hdrFig4        = "== Fig. 4: Markovian streaming comparison =="
	hdrFig6        = "== Fig. 6: general streaming comparison (CBR video, deadlines) =="
	hdrTransient   = "== Extension: start-up transient (P[buffer empty](t), awake period 100 ms) =="
	hdrFig8        = "== Fig. 8: energy/miss trade-off =="
)

// section renders a table section the way the study CLIs print it.
func section(header string, h []string, rows [][]string) string {
	return header + "\n" + experiments.FormatTable(h, rows) + "\n"
}

func textRPCSimplified(res *experiments.Sect3Result) string {
	s := hdrSect3RPC + "\n" + fmt.Sprintf("simplified rpc (%d states): transparent=%t\n", res.States, res.Transparent)
	if !res.Transparent {
		s += "distinguishing formula:\n  " + res.Formula + "\n"
	}
	return s
}

func textRPCRevised(res *experiments.Sect3Result) string {
	return fmt.Sprintf("revised rpc (%d states): transparent=%t\n\n", res.States, res.Transparent)
}

func textStreaming(res *experiments.Sect3Result) string {
	s := hdrSect3Stream + "\n" + fmt.Sprintf("streaming (%d states): transparent=%t\n\n", res.States, res.Transparent)
	if !res.Transparent {
		s += "distinguishing formula:\n  " + res.Formula + "\n"
	}
	return s
}

func textFig7(c *experiments.TradeoffCurves) string {
	h, rows := experiments.TradeoffRows(c, "waiting_time", "energy_per_request")
	s := section(hdrFig7, h, rows)
	if dom := experiments.ParetoDominated(c.General); len(dom) > 0 {
		s += fmt.Sprintf("Pareto-dominated points on the general curve (timeouts near the idle period): %d\n", len(dom))
	}
	return s
}

func textFig8(c *experiments.TradeoffCurves) string {
	h, rows := experiments.TradeoffRows(c, "miss_rate", "energy_per_frame")
	return section(hdrFig8, h, rows)
}

// Runner path: the entry points rpcstudy and streamingstudy call.

func runSect3RPCSimplified(e *env) (string, error) {
	res, err := e.runner.RPCNoninterferenceSimplified()
	if err != nil {
		return "", err
	}
	return textRPCSimplified(res), nil
}

func runSect3RPCRevised(e *env) (string, error) {
	res, err := e.runner.RPCNoninterferenceRevised()
	if err != nil {
		return "", err
	}
	return textRPCRevised(res), nil
}

func runSect3Streaming(e *env) (string, error) {
	res, err := e.runner.StreamingNoninterference(e.scale)
	if err != nil {
		return "", err
	}
	return textStreaming(res), nil
}

func runFig3Markov(e *env) (string, error) {
	pts, err := e.runner.Fig3Markov(nil)
	if err != nil {
		return "", err
	}
	h, rows := experiments.Fig3Rows(pts)
	return section(hdrFig3Markov, h, rows), nil
}

func runPolicies(e *env) (string, error) {
	pts, err := e.runner.PolicyComparison(5)
	if err != nil {
		return "", err
	}
	h, rows := experiments.PolicyRows(pts)
	return section(hdrPolicies, h, rows), nil
}

func runBattery(e *env) (string, error) {
	pts, err := e.runner.BatteryLifetime(5000, 5, 20)
	if err != nil {
		return "", err
	}
	h, rows := experiments.BatteryRows(pts)
	return section(hdrBattery, h, rows), nil
}

func runFig4(e *env) (string, error) {
	pts, err := e.runner.Fig4Markov(nil, e.scale)
	if err != nil {
		return "", err
	}
	h, rows := experiments.Fig4Rows(pts)
	return section(hdrFig4, h, rows), nil
}

func runTransient(e *env) (string, error) {
	pts, err := e.runner.StreamingStartupTransient(nil, 100, e.scale)
	if err != nil {
		return "", err
	}
	h, rows := experiments.TransientRows(pts)
	return section(hdrTransient, h, rows), nil
}

func runFig3General(e *env) (string, error) {
	pts, err := e.runner.Fig3General(nil, e.rpcSim)
	if err != nil {
		return "", err
	}
	h, rows := experiments.Fig3Rows(pts)
	return section(hdrFig3General, h, rows), nil
}

func runFig5(e *env) (string, error) {
	pts, err := e.runner.Fig5Validation(nil, e.rpcSim)
	if err != nil {
		return "", err
	}
	h, rows := experiments.Fig5Rows(pts)
	return section(hdrFig5, h, rows), nil
}

func runFig7(e *env) (string, error) {
	curves, err := e.runner.Fig7Tradeoff(nil, e.rpcSim)
	if err != nil {
		return "", err
	}
	return textFig7(curves), nil
}

func runFig6(e *env) (string, error) {
	pts, err := e.runner.Fig6General(nil, e.scale, e.streamSim)
	if err != nil {
		return "", err
	}
	h, rows := experiments.Fig4Rows(pts)
	return section(hdrFig6, h, rows), nil
}

func runFig8(e *env) (string, error) {
	curves, err := e.runner.Fig8Tradeoff(nil, e.scale, e.streamSim)
	if err != nil {
		return "", err
	}
	return textFig8(curves), nil
}

// solveOp is the `dpmassess solve -measures <msr> [-compose minimize]
// <aem>` path at the CLI's defaults: parse both files, elaborate, and
// solve through an ephemeral session with no result store.
func solveOp(aem, msr string, minimize bool) func(e *env) (string, error) {
	return func(e *env) (string, error) {
		src, err := os.ReadFile(filepath.Join(e.root, "specs", aem))
		if err != nil {
			return "", err
		}
		arch, err := parser.Parse(string(src))
		if err != nil {
			return "", err
		}
		m, err := elab.Elaborate(arch)
		if err != nil {
			return "", err
		}
		msrc, err := os.ReadFile(filepath.Join(e.root, "specs", msr))
		if err != nil {
			return "", err
		}
		ms, err := measure.Parse(string(msrc))
		if err != nil {
			return "", err
		}
		spec, cfg := solveSpec(m, ms, minimize, e.workers)
		rep, err := pipeline.NewSession(spec, cfg).Phase2()
		if err != nil {
			return "", err
		}
		return textSolve(rep, ms), nil
	}
}

// solveSpec is the session dpmassess solve opens: auto sweep, the given
// worker count everywhere, no store.
func solveSpec(m *elab.Model, ms []measure.Measure, minimize bool, workers int) (pipeline.Spec, pipeline.Config) {
	return pipeline.Spec{
		Model:    m,
		Measures: ms,
		Gen:      lts.GenerateOptions{GenWorkers: workers},
		Minimize: minimize,
		Solve:    ctmc.SolveOptions{Sweep: ctmc.SweepAuto, Workers: workers},
	}, pipeline.Config{Workers: workers}
}

// textSolve prints a solve report the way dpmassess solve does.
func textSolve(rep *pipeline.Phase2Report, ms []measure.Measure) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "states: %d (tangible %d, vanishing %d)\n", rep.States, rep.Tangible, rep.Vanishing)
	for _, m := range ms {
		fmt.Fprintf(&sb, "%-24s %.8g\n", m.Name, rep.Values[m.Name])
	}
	return sb.String()
}
