package main

// The traced replay re-runs every workload operation through the layers'
// public functions, one call at a time, with a span around each call. It
// opens the same specs experiments.Runner opens (so session interning,
// anchor reuse and Store traffic match the Runner's) and must print the same
// bytes as the Runner path; the benchmark checks that it does.

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/aemilia"
	"repro/internal/aemilia/parser"
	"repro/internal/bisim"
	"repro/internal/ctmc"
	"repro/internal/dist"
	"repro/internal/elab"
	"repro/internal/experiments"
	"repro/internal/hml"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/noninterference"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// counts are the per-layer work counters of one traced pass.
type counts struct {
	elabModels, measureEvals                 int
	localIn, localOut                        int
	ltsStates, ltsEdges, vanishing, chainLTS int
	bisimStatesIn, formulaDepth              int
	sweeps, jacobiSolves, escalations        int
	batchPoints                              int
	simRuns, simDistinct, simReplications    int
	simEvents                                int64
}

// sess is a session handle plus the spec it was opened with and the
// store its Config carries (nil for the CLI's ephemeral solve sessions).
type sess struct {
	*pipeline.Session
	spec  pipeline.Spec
	store pipeline.Store
}

// anchorSolution is a solved sweep anchor, as pipeline sessions stage it.
type anchorSolution struct {
	values map[string]float64
	pi     []float64
}

// replayer runs one traced pass.
type replayer struct {
	rec     *recorder
	mgr     *pipeline.Manager
	cfg     pipeline.Config
	store   *countingStore
	workers int
	c       counts

	p2memo  map[pipeline.SpecHash]*pipeline.Phase2Report
	anchors map[string]anchorSolution
	staged  map[string]bool // "<stage>/<spec hash>" already built this pass
	simKeys map[string]bool
}

func newReplayer(rec *recorder, workers int) *replayer {
	store := newCountingStore()
	return &replayer{
		rec:     rec,
		mgr:     pipeline.NewManager(),
		cfg:     pipeline.Config{Workers: workers, Store: store},
		store:   store,
		workers: workers,
		p2memo:  make(map[pipeline.SpecHash]*pipeline.Phase2Report),
		anchors: make(map[string]anchorSolution),
		staged:  make(map[string]bool),
		simKeys: make(map[string]bool),
	}
}

// firstTime reports whether the named stage of s is built for the first
// time in this pass, and marks it built.
func (rp *replayer) firstTime(stage string, s sess) bool {
	k := stage + "/" + string(s.SpecHash())
	if rp.staged[k] {
		return false
	}
	rp.staged[k] = true
	return true
}

// genOpts and solveOpts are the options experiments.Runner puts in the
// specs it opens.
func (rp *replayer) genOpts() lts.GenerateOptions {
	return lts.GenerateOptions{GenWorkers: rp.workers}
}

func (rp *replayer) solveOpts() ctmc.SolveOptions {
	return ctmc.SolveOptions{Workers: rp.workers}
}

// open interns spec like the Runner does, counting model builds.
func (rp *replayer) open(spec pipeline.Spec) (sess, error) {
	if build := spec.Build; build != nil {
		spec.Build = func() (*aemilia.ArchiType, error) {
			rp.c.elabModels++
			return build()
		}
	}
	s, err := rp.mgr.Open(spec, rp.cfg)
	if err != nil {
		return sess{}, err
	}
	return sess{Session: s, spec: spec, store: rp.store}, nil
}

func (rp *replayer) rpcSession(p models.RPCParams) (sess, error) {
	return rp.open(pipeline.Spec{
		Key:      fmt.Sprintf("rpc:%#v", p),
		Build:    func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(p) },
		Measures: models.RPCMeasures(p),
		Gen:      rp.genOpts(),
		Solve:    rp.solveOpts(),
	})
}

func (rp *replayer) streamingSession(p models.StreamingParams) (sess, error) {
	return rp.open(pipeline.Spec{
		Key:      fmt.Sprintf("streaming:%#v", p),
		Build:    func() (*aemilia.ArchiType, error) { return models.BuildStreaming(p) },
		Measures: models.StreamingMeasures(p),
		Gen:      rp.genOpts(),
		Solve:    rp.solveOpts(),
	})
}

// Session stages, each under the span of the one layer call it wraps.
// Stages run in order, so a span never hides an earlier stage's work.

func (rp *replayer) model(s sess) (*elab.Model, error) {
	var m *elab.Model
	err := rp.rec.do("elab.elaborate", func() (err error) {
		m, err = s.Model()
		return err
	})
	return m, err
}

func (rp *replayer) ltsOf(s sess) (*lts.LTS, error) {
	if _, err := rp.model(s); err != nil {
		return nil, err
	}
	if s.spec.Minimize {
		err := rp.rec.do("compose.minimize", func() error {
			_, err := s.GenModel()
			return err
		})
		if err != nil {
			return nil, err
		}
		if rp.firstTime("minimize", s) {
			st, err := s.MinimizeStats()
			if err != nil {
				return nil, err
			}
			for _, in := range st.Instances {
				rp.c.localIn += in.Configs
				rp.c.localOut += in.Blocks
			}
		}
	}
	var l *lts.LTS
	err := rp.rec.do("lts.generate", func() (err error) {
		l, err = s.LTS()
		return err
	})
	if err != nil {
		return nil, err
	}
	if rp.firstTime("lts", s) {
		rp.c.ltsStates += l.NumStates
		rp.c.ltsEdges += l.NumTransitions()
	}
	return l, nil
}

func (rp *replayer) chain(s sess) (*lts.LTS, *ctmc.CTMC, error) {
	l, err := rp.ltsOf(s)
	if err != nil {
		return nil, nil, err
	}
	var c *ctmc.CTMC
	err = rp.rec.do("ctmc.build", func() (err error) {
		c, err = s.Chain()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if rp.firstTime("chain", s) {
		rp.c.vanishing += c.NumVanishing()
		rp.c.chainLTS += l.NumStates
	}
	return l, c, nil
}

func (rp *replayer) eval(ms []measure.Measure, c *ctmc.CTMC, pi []float64) (map[string]float64, error) {
	var values map[string]float64
	err := rp.rec.do("measure.eval", func() (err error) {
		values, err = measure.EvalAll(ms, c, pi)
		return err
	})
	rp.c.measureEvals++
	return values, err
}

func (rp *replayer) noteTrace(tr *ctmc.SolveTrace) {
	if tr == nil {
		return
	}
	rp.c.escalations += len(tr.Attempts) - 1
	for _, a := range tr.Attempts {
		rp.c.sweeps += a.Iterations
		if a.Sweep == ctmc.SweepJacobi {
			rp.c.jacobiSolves++
		}
	}
}

// solveResolved resolves the spec's solver options against the session
// config, as pipeline.Session does.
func (rp *replayer) solveResolved(s sess) ctmc.SolveOptions {
	so := s.spec.Solve
	if so.Workers <= 0 {
		so.Workers = rp.workers
	}
	return so
}

// phase2 replays Session.Phase2: staged once per spec, memoized in the
// session's store under the "default" point.
func (rp *replayer) phase2(s sess) (*pipeline.Phase2Report, error) {
	h := s.SpecHash()
	if rep, ok := rp.p2memo[h]; ok {
		return rep, nil
	}
	key := pipeline.ResultKey{Spec: h, Point: "default"}
	if s.store != nil {
		if rep, ok := s.store.Get(key); ok {
			rp.p2memo[h] = rep
			return rep, nil
		}
	}
	l, c, err := rp.chain(s)
	if err != nil {
		return nil, err
	}
	var (
		pi []float64
		tr *ctmc.SolveTrace
	)
	err = rp.rec.do("ctmc.solve", func() (err error) {
		pi, tr, err = c.SteadyStateTraced(rp.solveResolved(s))
		return err
	})
	rp.noteTrace(tr)
	if err != nil {
		return nil, err
	}
	values, err := rp.eval(s.spec.Measures, c, pi)
	if err != nil {
		return nil, err
	}
	rep := &pipeline.Phase2Report{Values: values, States: l.NumStates, Tangible: c.N, Vanishing: c.NumVanishing(), Trace: tr}
	if s.store != nil {
		s.store.Put(key, rep)
	}
	rp.p2memo[h] = rep
	return rep, nil
}

// encodePoint is the bit-exact point encoding sessions key anchors and
// stored sweep results by.
func encodePoint(point []float64) string {
	buf := make([]byte, 8*len(point))
	for i, v := range point {
		binary.BigEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return string(buf)
}

// sweep replays Session.Sweep without checkpoints: the first point is the
// cold-solved anchor (staged per spec and anchor), the rest come from the
// store or from batched solves warm-started at the anchor, in chunks of
// pipeline.DefaultLaneWidth lanes.
func (rp *replayer) sweep(s sess, points [][]float64) ([]map[string]float64, error) {
	l, pristine, err := rp.chain(s)
	if err != nil {
		return nil, err
	}
	var base *ctmc.CTMC
	_ = rp.rec.do("ctmc.rebind", func() error {
		base = pristine.Clone()
		return nil
	})
	mkSolve := func(warm []float64) ctmc.SolveOptions {
		so := rp.solveResolved(s)
		so.WarmStart = warm
		so.Escalation = ctmc.EscalateNever
		return so
	}
	rebind := func(i int) error {
		return rp.rec.do("ctmc.rebind", func() error { return base.Rebind(points[i]) })
	}
	solveSolo := func(i int, warm []float64) (map[string]float64, []float64, error) {
		if err := rebind(i); err != nil {
			return nil, nil, err
		}
		var (
			pi []float64
			tr *ctmc.SolveTrace
		)
		err := rp.rec.do("ctmc.solve", func() (err error) {
			pi, tr, err = base.SteadyStateTraced(mkSolve(warm))
			return err
		})
		rp.noteTrace(tr)
		if err != nil {
			return nil, nil, err
		}
		values, err := rp.eval(s.spec.Measures, base, pi)
		return values, pi, err
	}

	out := make([]map[string]float64, len(points))
	anchorKey := encodePoint(points[0])
	ak := string(s.SpecHash()) + "/" + anchorKey
	anchor, ok := rp.anchors[ak]
	if !ok {
		values, pi, err := solveSolo(0, nil)
		if err != nil {
			return nil, fmt.Errorf("sweep anchor: %w", err)
		}
		anchor = anchorSolution{values: values, pi: pi}
		rp.anchors[ak] = anchor
	}
	out[0] = anchor.values

	key := func(i int) pipeline.ResultKey {
		return pipeline.ResultKey{Spec: s.SpecHash(), Anchor: anchorKey, Point: encodePoint(points[i])}
	}
	for i := 1; i < len(points); i++ {
		if rep, ok := s.store.Get(key(i)); ok {
			out[i] = rep.Values
		}
	}
	finish := func(i int, values map[string]float64) {
		out[i] = values
		s.store.Put(key(i), &pipeline.Phase2Report{Values: values, States: l.NumStates, Tangible: base.N, Vanishing: base.NumVanishing()})
	}

	rest := len(points) - 1
	width := pipeline.DefaultLaneWidth
	if width > rest {
		width = rest
	}
	if width <= 1 {
		for i := 1; i < len(points); i++ {
			if out[i] != nil {
				continue
			}
			values, _, err := solveSolo(i, anchor.pi)
			if err != nil {
				return nil, fmt.Errorf("sweep point %d: %w", i, err)
			}
			finish(i, values)
		}
		return out, nil
	}
	for off := 1; off < len(points); off += width {
		w := width
		if off+w > len(points) {
			w = len(points) - off
		}
		needed := false
		for k := 0; k < w; k++ {
			needed = needed || out[off+k] == nil
		}
		if !needed {
			continue
		}
		var (
			pis      [][]float64
			laneErrs []error
		)
		err := rp.rec.do("ctmc.batch_solve", func() (err error) {
			pis, laneErrs, err = base.SolveBatchLanes(points[off:off+w], ctmc.BatchOptions{Solve: mkSolve(anchor.pi)})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("sweep points %d-%d: %w", off, off+w-1, err)
		}
		rp.c.batchPoints += w
		for lane := 0; lane < w; lane++ {
			i := off + lane
			if laneErrs[lane] != nil {
				return nil, fmt.Errorf("sweep point %d: %w", i, laneErrs[lane])
			}
			if err := rebind(i); err != nil {
				return nil, err
			}
			values, err := rp.eval(s.spec.Measures, base, pis[lane])
			if err != nil {
				return nil, err
			}
			finish(i, values)
		}
	}
	return out, nil
}

// phase3 replays Session.Phase3: one sim.Run on the staged full model.
func (rp *replayer) phase3(s sess, dists map[sim.Activity]dist.Distribution, st pipeline.SimSettings) (*pipeline.Phase3Report, error) {
	m, err := rp.model(s)
	if err != nil {
		return nil, err
	}
	if st.Workers <= 0 {
		st.Workers = rp.workers
	}
	var res *sim.Result
	err = rp.rec.do("sim.run", func() (err error) {
		res, err = sim.Run(sim.Config{
			Model:           m,
			Distributions:   dists,
			Measures:        s.spec.Measures,
			RunLength:       st.RunLength,
			Warmup:          st.Warmup,
			Replications:    st.Replications,
			Seed:            st.Seed,
			ConfidenceLevel: st.ConfidenceLevel,
			Workers:         st.Workers,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.c.simRuns++
	rp.c.simEvents += res.Events
	rp.c.simReplications += res.Replications
	if k := simKey(s, dists, st); !rp.simKeys[k] {
		rp.simKeys[k] = true
		rp.c.simDistinct++
	}
	return &pipeline.Phase3Report{Estimates: res.Estimates, Events: res.Events, Replications: res.Replications}, nil
}

// simKey identifies a simulation by everything its estimates depend on:
// spec, distributions, horizon, replications and seed.
func simKey(s sess, dists map[sim.Activity]dist.Distribution, st pipeline.SimSettings) string {
	parts := make([]string, 0, len(dists))
	for a, d := range dists {
		parts = append(parts, fmt.Sprintf("%s.%s=%s", a.Instance, a.Action, d))
	}
	sort.Strings(parts)
	return fmt.Sprintf("%s|%s|%v|%v|%d|%d|%v", s.SpecHash(), strings.Join(parts, ","),
		st.RunLength, st.Warmup, st.Replications, st.Seed, st.ConfidenceLevel)
}

// withSeed applies the experiments package's seed default.
func withSeed(st pipeline.SimSettings) pipeline.SimSettings {
	if st.Seed == 0 {
		st.Seed = paperSeed
	}
	return st
}

// Phase 1.

func rpcNoninterference() noninterference.Spec {
	return noninterference.Spec{
		High: lts.LabelMatcherByNames(models.RPCHighLabels()...),
		Low:  lts.LabelMatcherByInstance("C"),
	}
}

func (rp *replayer) phase1(name string, spec pipeline.Spec, ni noninterference.Spec) (*experiments.Sect3Result, error) {
	s, err := rp.open(spec)
	if err != nil {
		return nil, err
	}
	l, err := rp.ltsOf(s)
	if err != nil {
		return nil, err
	}
	notLow := func(label string) bool { return !ni.Low(label) }
	var hidden, restricted *lts.LTS
	_ = rp.rec.do("lts.hide_restrict", func() error {
		hidden = lts.Hide(l, notLow)
		restricted = lts.Hide(lts.Restrict(l, ni.High), notLow)
		return nil
	})
	var (
		ok bool
		f  hml.Formula
	)
	_ = rp.rec.do("bisim.weak_equiv", func() error {
		ok, f = bisim.Equivalent(hidden, restricted, bisim.Weak)
		return nil
	})
	rp.c.bisimStatesIn += hidden.NumStates + restricted.NumStates
	res := &experiments.Sect3Result{Name: name, Transparent: ok, States: l.NumStates, Transitions: l.NumTransitions()}
	if !ok {
		res.Formula = hml.Format(f)
		if d := hml.Depth(f); d > rp.c.formulaDepth {
			rp.c.formulaDepth = d
		}
	}
	return res, nil
}

func replaySect3RPCSimplified(e *env) (string, error) {
	res, err := e.rp.phase1("rpc simplified", pipeline.Spec{
		Key:   "rpc-simplified:functional",
		Build: models.BuildRPCSimplified,
		Gen:   e.rp.genOpts(),
	}, rpcNoninterference())
	if err != nil {
		return "", err
	}
	return textRPCSimplified(res), nil
}

func replaySect3RPCRevised(e *env) (string, error) {
	p := models.DefaultRPCParams()
	p.Mode = models.Functional
	res, err := e.rp.phase1("rpc revised", pipeline.Spec{
		Key:   fmt.Sprintf("rpc:%#v", p),
		Build: func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(p) },
		Gen:   e.rp.genOpts(),
	}, rpcNoninterference())
	if err != nil {
		return "", err
	}
	return textRPCRevised(res), nil
}

func replaySect3Streaming(e *env) (string, error) {
	p := models.DefaultStreamingParams()
	p.Mode = models.Functional
	if e.scale == experiments.Quick {
		p.APCapacity, p.ClientCapacity = 2, 2
	}
	res, err := e.rp.phase1("streaming", pipeline.Spec{
		Key:   fmt.Sprintf("streaming:%#v", p),
		Build: func() (*aemilia.ArchiType, error) { return models.BuildStreaming(p) },
		Gen:   e.rp.genOpts(),
	}, noninterference.Spec{
		High: lts.LabelMatcherByNames(models.StreamingHighLabels()...),
		Low:  lts.LabelMatcherByInstance("C"),
	})
	if err != nil {
		return "", err
	}
	return textStreaming(res), nil
}

// Phase 2: the Markovian figures.

// streamingParams are the experiments package's streaming parameters at
// scale.
func streamingParams(scale experiments.Scale) models.StreamingParams {
	p := models.DefaultStreamingParams()
	if scale == experiments.Quick {
		p.APCapacity, p.ClientCapacity = 3, 3
	}
	return p
}

func rpcMetrics(v map[string]float64) experiments.RPCMetrics {
	thr := v["throughput"]
	m := experiments.RPCMetrics{Throughput: thr}
	if thr > 0 {
		m.WaitingTime = v["waiting_time"] / thr
		m.EnergyPerRequest = v["energy"] / thr
	}
	return m
}

func streamingMetrics(v map[string]float64) experiments.StreamingMetrics {
	delivered, missed, sent := v["frames_delivered"], v["frames_missed"], v["frames_sent"]
	var m experiments.StreamingMetrics
	if delivered > 0 {
		m.EnergyPerFrame = v["nic_energy"] / delivered
	}
	if sent > 0 {
		m.Loss = v["frames_lost"] / sent
	}
	if delivered+missed > 0 {
		m.Miss = missed / (delivered + missed)
	}
	m.Quality = 1 - m.Miss
	return m
}

// reciprocals turns a knob grid into one-slot rate points.
func reciprocals(knobs []float64) [][]float64 {
	pts := make([][]float64, len(knobs))
	for i, k := range knobs {
		pts[i] = []float64{1 / k}
	}
	return pts
}

func (rp *replayer) rpcTimeoutSweep(timeouts []float64) ([]map[string]float64, error) {
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	s, err := rp.rpcSession(p)
	if err != nil {
		return nil, err
	}
	return rp.sweep(s, reciprocals(timeouts))
}

func (rp *replayer) fig3Markov() ([]experiments.RPCPoint, error) {
	timeouts := experiments.DefaultRPCTimeouts()
	p0 := models.DefaultRPCParams()
	p0.WithDPM = false
	s0, err := rp.rpcSession(p0)
	if err != nil {
		return nil, err
	}
	rep0, err := rp.phase2(s0)
	if err != nil {
		return nil, err
	}
	base := rpcMetrics(rep0.Values)
	points := make([]experiments.RPCPoint, len(timeouts))
	var swept []float64
	var sweptIdx, fallback []int
	for i, T := range timeouts {
		points[i].Timeout = T
		points[i].NoDPM = base
		if T > 0 {
			swept = append(swept, T)
			sweptIdx = append(sweptIdx, i)
		} else {
			fallback = append(fallback, i)
		}
	}
	values, err := rp.rpcTimeoutSweep(swept)
	if err != nil {
		return nil, err
	}
	for k, v := range values {
		points[sweptIdx[k]].WithDPM = rpcMetrics(v)
	}
	for _, i := range fallback {
		p := models.DefaultRPCParams()
		p.ShutdownTimeout = timeouts[i]
		s, err := rp.rpcSession(p)
		if err != nil {
			return nil, err
		}
		rep, err := rp.phase2(s)
		if err != nil {
			return nil, err
		}
		points[i].WithDPM = rpcMetrics(rep.Values)
	}
	return points, nil
}

func replayFig3Markov(e *env) (string, error) {
	pts, err := e.rp.fig3Markov()
	if err != nil {
		return "", err
	}
	h, rows := experiments.Fig3Rows(pts)
	return section(hdrFig3Markov, h, rows), nil
}

var policies = []models.Policy{models.PolicyNone, models.PolicyTrivial, models.PolicyTimeout, models.PolicyPredictive}

func policySession(rp *replayer, pol models.Policy, timeout float64) (sess, models.RPCParams, error) {
	p := models.DefaultRPCParams()
	p.Policy = pol
	p.WithDPM = pol != models.PolicyNone
	p.ShutdownTimeout = timeout
	s, err := rp.rpcSession(p)
	return s, p, err
}

func replayPolicies(e *env) (string, error) {
	var pts []experiments.PolicyPoint
	for _, pol := range policies {
		s, _, err := policySession(e.rp, pol, 5)
		if err != nil {
			return "", err
		}
		rep, err := e.rp.phase2(s)
		if err != nil {
			return "", err
		}
		pts = append(pts, experiments.PolicyPoint{Policy: pol, Metrics: rpcMetrics(rep.Values)})
	}
	h, rows := experiments.PolicyRows(pts)
	return section(hdrPolicies, h, rows), nil
}

// transientStep evolves pi by dt as the experiments package does.
func (rp *replayer) transientStep(c *ctmc.CTMC, pi []float64, dt float64) ([]float64, error) {
	var next []float64
	err := rp.rec.do("ctmc.transient", func() (err error) {
		next, err = c.TransientFromCtx(nil, pi, dt, 1e-9)
		return err
	})
	return next, err
}

// battery replays BatteryLifetime for one policy: trapezoidal integration
// of the transient energy rate until the budget is spent.
func (rp *replayer) battery(pol models.Policy, budget, timeout, dt float64) (experiments.BatteryPoint, error) {
	s, p, err := policySession(rp, pol, timeout)
	if err != nil {
		return experiments.BatteryPoint{}, err
	}
	measures := models.RPCMeasures(p)
	_, chain, err := rp.chain(s)
	if err != nil {
		return experiments.BatteryPoint{}, err
	}
	energyAt := func(pi []float64) (float64, error) {
		total := 0.0
		err := rp.rec.do("measure.eval", func() error {
			for _, ms := range measures {
				if ms.Name != "energy" {
					continue
				}
				v, err := ms.EvalCTMC(chain, pi)
				if err != nil {
					return err
				}
				total += v
			}
			return nil
		})
		rp.c.measureEvals++
		return total, err
	}
	throughputAt := func(pi []float64) float64 {
		var v float64
		_ = rp.rec.do("measure.eval", func() error {
			v = chain.Throughput(pi, func(label string) bool {
				return lts.LabelInvolves(label, "C.process_result_packet")
			}, nil)
			return nil
		})
		rp.c.measureEvals++
		return v
	}
	pi := append([]float64(nil), chain.Initial...)
	eRate, err := energyAt(pi)
	if err != nil {
		return experiments.BatteryPoint{}, err
	}
	tRate := throughputAt(pi)
	var elapsed, consumed, served float64
	const maxSteps = 1_000_000
	for step := 0; consumed < budget; step++ {
		if step >= maxSteps {
			return experiments.BatteryPoint{}, fmt.Errorf("battery integration exceeded %d steps", maxSteps)
		}
		next, err := rp.transientStep(chain, pi, dt)
		if err != nil {
			return experiments.BatteryPoint{}, err
		}
		eNext, err := energyAt(next)
		if err != nil {
			return experiments.BatteryPoint{}, err
		}
		tNext := throughputAt(next)
		dE := (eRate + eNext) / 2 * dt
		dS := (tRate + tNext) / 2 * dt
		if consumed+dE >= budget {
			frac := (budget - consumed) / dE
			elapsed += frac * dt
			served += frac * dS
			consumed = budget
		} else {
			consumed += dE
			served += dS
			elapsed += dt
		}
		pi, eRate, tRate = next, eNext, tNext
	}
	mp := 0.0
	if elapsed > 0 {
		mp = budget / elapsed
	}
	return experiments.BatteryPoint{Policy: pol, Lifetime: elapsed, RequestsServed: served, MeanPower: mp}, nil
}

func replayBattery(e *env) (string, error) {
	var pts []experiments.BatteryPoint
	for _, pol := range policies {
		pt, err := e.rp.battery(pol, 5000, 5, 20)
		if err != nil {
			return "", err
		}
		pts = append(pts, pt)
	}
	h, rows := experiments.BatteryRows(pts)
	return section(hdrBattery, h, rows), nil
}

func (rp *replayer) fig4Markov(scale experiments.Scale) ([]experiments.StreamingPoint, error) {
	periods := experiments.DefaultAwakePeriods()
	p0 := streamingParams(scale)
	p0.WithDPM = false
	s0, err := rp.streamingSession(p0)
	if err != nil {
		return nil, err
	}
	rep0, err := rp.phase2(s0)
	if err != nil {
		return nil, err
	}
	base := streamingMetrics(rep0.Values)
	p := streamingParams(scale)
	p.ParametricPeriod = true
	s, err := rp.streamingSession(p)
	if err != nil {
		return nil, err
	}
	values, err := rp.sweep(s, reciprocals(periods))
	if err != nil {
		return nil, err
	}
	points := make([]experiments.StreamingPoint, len(periods))
	for i, P := range periods {
		points[i] = experiments.StreamingPoint{Period: P, WithDPM: streamingMetrics(values[i]), NoDPM: base}
	}
	return points, nil
}

func replayFig4(e *env) (string, error) {
	pts, err := e.rp.fig4Markov(e.scale)
	if err != nil {
		return "", err
	}
	h, rows := experiments.Fig4Rows(pts)
	return section(hdrFig4, h, rows), nil
}

func replayTransient(e *env) (string, error) {
	rp := e.rp
	times := []float64{50, 150, 300, 500, 700, 1000, 1500, 2500, 4000}
	chainFor := func(withDPM bool) (*ctmc.CTMC, error) {
		p := streamingParams(e.scale)
		p.WithDPM = withDPM
		p.AwakePeriod = 100
		gen := rp.genOpts()
		gen.Predicates = []lts.StatePred{{Instance: "B", Action: "miss_frame"}}
		s, err := rp.open(pipeline.Spec{
			Key:   fmt.Sprintf("streaming:%#v", p),
			Build: func() (*aemilia.ArchiType, error) { return models.BuildStreaming(p) },
			Gen:   gen,
		})
		if err != nil {
			return nil, err
		}
		_, c, err := rp.chain(s)
		return c, err
	}
	withDPM, err := chainFor(true)
	if err != nil {
		return "", err
	}
	noDPM, err := chainFor(false)
	if err != nil {
		return "", err
	}
	pEmpty := func(c *ctmc.CTMC, pi []float64) (float64, error) {
		var v float64
		err := rp.rec.do("measure.eval", func() (err error) {
			v, err = c.ProbLocallyEnabled(pi, "B.miss_frame")
			return err
		})
		rp.c.measureEvals++
		return v, err
	}
	var pts []experiments.TransientPoint
	piD := append([]float64(nil), withDPM.Initial...)
	piN := append([]float64(nil), noDPM.Initial...)
	prev := 0.0
	for _, t := range times {
		dt := t - prev
		if piD, err = rp.transientStep(withDPM, piD, dt); err != nil {
			return "", err
		}
		if piN, err = rp.transientStep(noDPM, piN, dt); err != nil {
			return "", err
		}
		prev = t
		pd, err := pEmpty(withDPM, piD)
		if err != nil {
			return "", err
		}
		pn, err := pEmpty(noDPM, piN)
		if err != nil {
			return "", err
		}
		pts = append(pts, experiments.TransientPoint{Time: t, PEmptyDPM: pd, PEmptyNoDPM: pn})
	}
	h, rows := experiments.TransientRows(pts)
	return section(hdrTransient, h, rows), nil
}

// Phase 3: the general-distribution figures.

func rpcMetricsFromSim(rep *pipeline.Phase3Report) experiments.RPCMetrics {
	return rpcMetrics(map[string]float64{
		"throughput":   rep.Estimates["throughput"].Mean,
		"waiting_time": rep.Estimates["waiting_time"].Mean,
		"energy":       rep.Estimates["energy"].Mean,
	})
}

func (rp *replayer) fig3General(st pipeline.SimSettings) ([]experiments.RPCPoint, error) {
	st = withSeed(st)
	p0 := models.DefaultRPCParams()
	p0.WithDPM = false
	s0, err := rp.rpcSession(p0)
	if err != nil {
		return nil, err
	}
	rep0, err := rp.phase3(s0, models.RPCGeneralDistributions(p0), st)
	if err != nil {
		return nil, err
	}
	base := rpcMetricsFromSim(rep0)
	var pts []experiments.RPCPoint
	for _, T := range experiments.DefaultRPCTimeouts() {
		p := models.DefaultRPCParams()
		p.ShutdownTimeout = T
		s, err := rp.rpcSession(p)
		if err != nil {
			return nil, err
		}
		rep, err := rp.phase3(s, models.RPCGeneralDistributions(p), st)
		if err != nil {
			return nil, err
		}
		pts = append(pts, experiments.RPCPoint{Timeout: T, WithDPM: rpcMetricsFromSim(rep), NoDPM: base})
	}
	return pts, nil
}

func replayFig3General(e *env) (string, error) {
	pts, err := e.rp.fig3General(e.rpcSim)
	if err != nil {
		return "", err
	}
	h, rows := experiments.Fig3Rows(pts)
	return section(hdrFig3General, h, rows), nil
}

func replayFig5(e *env) (string, error) {
	rp := e.rp
	st := withSeed(e.rpcSim)
	timeouts := []float64{1, 5, 10, 15, 20, 25}
	p0 := models.DefaultRPCParams()
	p0.WithDPM = false
	s0, err := rp.rpcSession(p0)
	if err != nil {
		return "", err
	}
	exact0Rep, err := rp.phase2(s0)
	if err != nil {
		return "", err
	}
	sim0Rep, err := rp.phase3(s0, models.RPCExponentialDistributions(p0), st)
	if err != nil {
		return "", err
	}
	exact0, sim0 := exact0Rep.Values["energy"], sim0Rep.Estimates["energy"]
	exact, err := rp.rpcTimeoutSweep(timeouts)
	if err != nil {
		return "", err
	}
	var pts []experiments.ValidationPoint
	for i, T := range timeouts {
		p := models.DefaultRPCParams()
		p.ShutdownTimeout = T
		s, err := rp.rpcSession(p)
		if err != nil {
			return "", err
		}
		simRep, err := rp.phase3(s, models.RPCExponentialDistributions(p), st)
		if err != nil {
			return "", err
		}
		exact1, sim1 := exact[i]["energy"], simRep.Estimates["energy"]
		relErr := 0.0
		if exact1 != 0 {
			relErr = math.Abs(sim1.Mean-exact1) / exact1
		}
		pts = append(pts, experiments.ValidationPoint{
			Timeout: T, ExactDPM: exact1, SimDPM: sim1, ExactNoDPM: exact0, SimNoDPM: sim0,
			WithinCI: sim1.Contains(exact1) && sim0.Contains(exact0), RelErrDPM: relErr,
		})
	}
	h, rows := experiments.Fig5Rows(pts)
	return section(hdrFig5, h, rows), nil
}

func replayFig7(e *env) (string, error) {
	markov, err := e.rp.fig3Markov()
	if err != nil {
		return "", err
	}
	general, err := e.rp.fig3General(e.rpcSim)
	if err != nil {
		return "", err
	}
	return textFig7(experiments.RPCTradeoffCurves(markov, general)), nil
}

func (rp *replayer) fig6General(scale experiments.Scale, st pipeline.SimSettings) ([]experiments.StreamingPoint, error) {
	st = withSeed(st)
	run := func(p models.StreamingParams) (experiments.StreamingMetrics, error) {
		p.DeadlineDebtCap = 12
		p.DeadlineSlack = 2
		s, err := rp.streamingSession(p)
		if err != nil {
			return experiments.StreamingMetrics{}, err
		}
		rep, err := rp.phase3(s, models.StreamingGeneralDistributions(p), st)
		if err != nil {
			return experiments.StreamingMetrics{}, err
		}
		return streamingMetrics(map[string]float64{
			"nic_energy":       rep.Estimates["nic_energy"].Mean,
			"frames_delivered": rep.Estimates["frames_delivered"].Mean,
			"frames_missed":    rep.Estimates["frames_missed"].Mean,
			"frames_sent":      rep.Estimates["frames_sent"].Mean,
			"frames_lost":      rep.Estimates["frames_lost"].Mean,
		}), nil
	}
	p0 := streamingParams(scale)
	p0.WithDPM = false
	base, err := run(p0)
	if err != nil {
		return nil, err
	}
	var pts []experiments.StreamingPoint
	for _, P := range experiments.DefaultAwakePeriods() {
		p := streamingParams(scale)
		p.AwakePeriod = P
		m, err := run(p)
		if err != nil {
			return nil, err
		}
		pts = append(pts, experiments.StreamingPoint{Period: P, WithDPM: m, NoDPM: base})
	}
	return pts, nil
}

func replayFig6(e *env) (string, error) {
	pts, err := e.rp.fig6General(e.scale, e.streamSim)
	if err != nil {
		return "", err
	}
	h, rows := experiments.Fig4Rows(pts)
	return section(hdrFig6, h, rows), nil
}

func replayFig8(e *env) (string, error) {
	markov, err := e.rp.fig4Markov(e.scale)
	if err != nil {
		return "", err
	}
	general, err := e.rp.fig6General(e.scale, e.streamSim)
	if err != nil {
		return "", err
	}
	return textFig8(experiments.StreamingTradeoffCurves(markov, general)), nil
}

// replaySolveOp replays solveOp layer by layer.
func replaySolveOp(aem, msr string, minimize bool) func(e *env) (string, error) {
	return func(e *env) (string, error) {
		rp := e.rp
		var arch *aemilia.ArchiType
		err := rp.rec.do("aemilia.parse", func() error {
			src, err := os.ReadFile(filepath.Join(e.root, "specs", aem))
			if err != nil {
				return err
			}
			arch, err = parser.Parse(string(src))
			return err
		})
		if err != nil {
			return "", err
		}
		var m *elab.Model
		err = rp.rec.do("elab.elaborate", func() (err error) {
			m, err = elab.Elaborate(arch)
			return err
		})
		if err != nil {
			return "", err
		}
		rp.c.elabModels++
		var ms []measure.Measure
		err = rp.rec.do("measure.parse", func() error {
			src, err := os.ReadFile(filepath.Join(e.root, "specs", msr))
			if err != nil {
				return err
			}
			ms, err = measure.Parse(string(src))
			return err
		})
		if err != nil {
			return "", err
		}
		spec, cfg := solveSpec(m, ms, minimize, rp.workers)
		s := sess{Session: pipeline.NewSession(spec, cfg), spec: spec}
		rep, err := rp.phase2(s)
		if err != nil {
			return "", err
		}
		// Ephemeral sessions are never shared: forget this one's stages so
		// an equal-hash solve later in the pass is counted again.
		delete(rp.p2memo, s.SpecHash())
		for _, st := range []string{"minimize", "lts", "chain"} {
			delete(rp.staged, st+"/"+string(s.SpecHash()))
		}
		return textSolve(rep, ms), nil
	}
}
