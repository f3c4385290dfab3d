package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"regimap/internal/arch"
	"regimap/internal/kernels"
	"regimap/internal/mapping"
	"regimap/internal/obs"
)

// engineLayers derives the sched/core/clique/ems/sim metrics from the spans
// the engines emit (plus the benchmark's own sim.check spans). nested says
// the events come from one goroutine, so self time is taken from the span
// tree; otherwise (the daemon's interleaved clients) it is a per-class sum.
// The second map holds the counts that must repeat exactly between runs.
func engineLayers(events []obs.Event, nested bool) (metrics, det map[string]float64, err error) {
	dur := durByName(events)
	count := map[string]int64{}
	for i := range events {
		count[events[i].Name]++
	}
	var attempts, mapped int64
	for i := range events {
		e := &events[i]
		if e.Name != "map.done" || e.Engine != "regimap" {
			continue
		}
		a, _ := e.FieldVal("attempts")
		attempts += a
		if ii, _ := e.FieldVal("ii"); ii > 0 {
			mapped++
		}
	}
	placed := sumField(events, "pass.clique", "placed")
	target := sumField(events, "pass.clique", "target")

	var coreSelf time.Duration
	if nested {
		self, err := selfTimes(events)
		if err != nil {
			return nil, nil, err
		}
		coreSelf = self["ii.attempt"]
	} else {
		coreSelf = classSelf(events, "ii.attempt", "pass.schedule", "pass.compat", "pass.clique", "pass.learn")
	}

	det = map[string]float64{
		"sched.calls":          float64(count["sched.schedule"]),
		"core.compat_nodes":    float64(sumField(events, "pass.compat", "nodes")),
		"clique.grouped_calls": float64(count["clique.grouped"]),
		"clique.find_calls":    float64(count["clique.find"]),
		"clique.placed":        float64(placed),
		"clique.target":        float64(target),
		"core.attempts":        float64(attempts),
		"core.mapped":          float64(mapped),
		"core.ii_steps":        float64(count["ii.attempt"]),
		"ems.placements":       float64(sumField(events, "ems.place", "placements")),
		"ems.routes":           float64(sumField(events, "ems.place", "routes")),
		"sim.checks":           float64(count["sim.check"]),
	}
	metrics = map[string]float64{
		"sched.ms":             ms(dur["sched.schedule"]),
		"core.compat_ms":       ms(dur["pass.compat"]),
		"clique.ms":            ms(dur["pass.clique"]),
		"core.learn_ms":        ms(dur["pass.learn"]),
		"core.self_ms":         ms(coreSelf),
		"ems.ms":               ms(dur["ems.place"]),
		"sim.ms":               ms(dur["sim.check"]),
		"clique.placed_ratio":  ratio(float64(placed), float64(target)),
		"core.attempt_yield":   ratio(float64(mapped), float64(attempts)),
		"sched.calls":          det["sched.calls"],
		"core.compat_nodes":    det["core.compat_nodes"],
		"clique.grouped_calls": det["clique.grouped_calls"],
		"clique.find_calls":    det["clique.find_calls"],
		"core.attempts":        det["core.attempts"],
		"core.ii_steps":        det["core.ii_steps"],
		"ems.placements":       det["ems.placements"],
		"ems.routes":           det["ems.routes"],
		"sim.checks":           det["sim.checks"],
	}
	return metrics, det, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pathInput is one (kernel, fabric, mapping) triple a workload served; the
// request-path unit costs are measured on these.
type pathInput struct {
	kernel, fabric string
	m              *mapping.Mapping
}

// pathReps is how often each request-path function is called per input; the
// per-input median keeps one preempted call from moving the figure.
const pathReps = 21

// requestPathCosts times the public functions a regimapd request runs
// before and after the engine — kernel build, DFG fingerprint, fabric
// resolve, fabric fingerprint, mapping JSON encoding — directly, on the
// workload's own inputs, and adds their mean per-input cost to m.
func requestPathCosts(m map[string]float64, inputs []pathInput) error {
	if len(inputs) == 0 {
		return fmt.Errorf("request-path costs: no inputs")
	}
	var build, dfp, resolve, afp, marshal, size float64
	timeIt := func(f func() error) (float64, error) {
		samples := make([]float64, pathReps)
		for i := range samples {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			samples[i] = us(time.Since(t0))
		}
		return median(samples), nil
	}
	for _, in := range inputs {
		k, ok := kernels.ByName(in.kernel)
		if !ok {
			return fmt.Errorf("request-path costs: unknown kernel %q", in.kernel)
		}
		d := k.Build()
		c, err := arch.Resolve(in.fabric)
		if err != nil {
			return err
		}
		steps := []struct {
			acc *float64
			f   func() error
		}{
			{&build, func() error { k.Build(); return nil }},
			{&dfp, func() error { d.Fingerprint(); return nil }},
			{&resolve, func() error { _, err := arch.Resolve(in.fabric); return err }},
			{&afp, func() error { c.Fingerprint(); return nil }},
			{&marshal, func() error { _, err := json.Marshal(in.m); return err }},
		}
		for _, s := range steps {
			v, err := timeIt(s.f)
			if err != nil {
				return fmt.Errorf("request-path costs on %s/%s: %w", in.kernel, in.fabric, err)
			}
			*s.acc += v
		}
		blob, err := json.Marshal(in.m)
		if err != nil {
			return err
		}
		size += float64(len(blob)) / 1024
	}
	n := float64(len(inputs))
	m["dfg.build_us"] = build / n
	m["dfg.fingerprint_us"] = dfp / n
	m["arch.resolve_us"] = resolve / n
	m["arch.fingerprint_us"] = afp / n
	m["mapping.marshal_us"] = marshal / n
	m["mapping.json_kb"] = size / n
	return nil
}

// maxPathInputs bounds how many distinct (kernel, fabric) pairs the
// request-path costs are averaged over.
const maxPathInputs = 64

// pathInputs picks the ops that returned a mapping, one per op identity, in
// a seed-independent order.
func pathInputs(res []opResult) []pathInput {
	byKey := map[string]pathInput{}
	for i := range res {
		r := &res[i]
		if r.m != nil {
			byKey[r.id] = pathInput{kernel: r.kernel, fabric: r.fabric, m: r.m}
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > maxPathInputs {
		keys = keys[:maxPathInputs]
	}
	out := make([]pathInput, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}
