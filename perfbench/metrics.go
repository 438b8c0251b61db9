package main

import (
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"pass_s_q1", "s"},
	{"pass_s_q3", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
}

// layerSpans are the spans the replay puts around single layer calls;
// each yields a "<span>_s" self-time metric.
var layerSpans = []string{
	"aemilia.parse", "measure.parse", "measure.eval", "elab.elaborate",
	"compose.minimize", "lts.generate", "lts.hide_restrict", "bisim.weak_equiv",
	"ctmc.build", "ctmc.solve", "ctmc.rebind", "ctmc.batch_solve",
	"ctmc.transient", "sim.run",
}

// perLayer are the metrics a --trace 1 run prints, on every workload
// (zero where the workload does not reach the layer).
func perLayer() []metricDef {
	var defs []metricDef
	for _, sp := range layerSpans {
		defs = append(defs, metricDef{sp + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"measure.evals", "count"},
		metricDef{"elab.models", "count"},
		metricDef{"compose.local_states_in", "count"},
		metricDef{"compose.local_states_out", "count"},
		metricDef{"lts.states", "count"},
		metricDef{"lts.edges", "count"},
		metricDef{"lts.states_per_s", "1/s"},
		metricDef{"lts.vanishing_frac", "ratio"},
		metricDef{"bisim.states_in", "count"},
		metricDef{"bisim.formula_depth", "count"},
		metricDef{"ctmc.sweeps", "count"},
		metricDef{"ctmc.jacobi_solves", "count"},
		metricDef{"ctmc.escalations", "count"},
		metricDef{"ctmc.batch_points", "count"},
		metricDef{"sim.runs", "count"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.events_per_s", "1/s"},
		metricDef{"sim.replications", "count"},
		metricDef{"sim.distinct_frac", "ratio"},
		metricDef{"pipeline.store_gets", "count"},
		metricDef{"pipeline.store_hit_frac", "ratio"},
	)
	for _, w := range workloadNames {
		for _, o := range workloads[w] {
			defs = append(defs, metricDef{"experiments." + o.name + "_s", "s"})
		}
	}
	return append(defs,
		metricDef{"trace.coverage", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"trace.serial_pass_s", "s"},
		metricDef{"fail_frac", "ratio"},
	)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// withUnits attaches each metric's unit from defs.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	m := make(map[string]metric, len(values))
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			m[d.name] = metric{v, d.unit}
		}
	}
	return m
}

// layerMetrics computes the per-layer metrics of a traced pass lasting
// pass, except the three the caller measures around it (overhead, serial
// pass, fail_frac). store is the Runner pass's store.
func layerMetrics(rec *recorder, c counts, store *countingStore, pass time.Duration) map[string]float64 {
	m := make(map[string]float64)
	set := func(name string, v float64) { m[name] = v }

	self := rec.selfSeconds()
	covered := 0.0
	for _, sp := range layerSpans {
		set(sp+"_s", self[sp])
		covered += self[sp]
	}
	total := make(map[string]float64)
	for _, sp := range rec.spans {
		total[sp.Name] += (sp.End - sp.Start).Seconds()
	}
	for _, w := range workloadNames {
		for _, o := range workloads[w] {
			set("experiments."+o.name+"_s", total["experiments."+o.name])
		}
	}
	set("measure.evals", float64(c.measureEvals))
	set("elab.models", float64(c.elabModels))
	set("compose.local_states_in", float64(c.localIn))
	set("compose.local_states_out", float64(c.localOut))
	set("lts.states", float64(c.ltsStates))
	set("lts.edges", float64(c.ltsEdges))
	set("lts.states_per_s", ratio(float64(c.ltsStates), self["lts.generate"]))
	set("lts.vanishing_frac", ratio(float64(c.vanishing), float64(c.chainLTS)))
	set("bisim.states_in", float64(c.bisimStatesIn))
	set("bisim.formula_depth", float64(c.formulaDepth))
	set("ctmc.sweeps", float64(c.sweeps))
	set("ctmc.jacobi_solves", float64(c.jacobiSolves))
	set("ctmc.escalations", float64(c.escalations))
	set("ctmc.batch_points", float64(c.batchPoints))
	set("sim.runs", float64(c.simRuns))
	set("sim.events", float64(c.simEvents))
	set("sim.events_per_s", ratio(float64(c.simEvents), self["sim.run"]))
	set("sim.replications", float64(c.simReplications))
	set("sim.distinct_frac", ratio(float64(c.simDistinct), float64(c.simRuns)))
	set("pipeline.store_gets", float64(store.gets.Load()))
	set("pipeline.store_hit_frac", ratio(float64(store.hits.Load()), float64(store.gets.Load())))
	set("trace.coverage", ratio(covered, pass.Seconds()))
	return m
}
