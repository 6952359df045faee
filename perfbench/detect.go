package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/dsl"
	"ngd/internal/graph"
	"ngd/internal/par"
	"ngd/internal/plan"
)

// loadProgram parses the generated graph and rules from their DSL text,
// as ngdcheck does.
func (in *inputs) loadProgram(tr *tracer) (*graph.Graph, map[string]graph.NodeID, *core.Set, map[string]int) {
	sp := tr.begin("dsl.load", -1)
	defer tr.end(sp)
	g, names, err := dsl.LoadGraph(bytes.NewReader(in.graphText))
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated graph does not load: %v", err))
	}
	rules, lines, err := dsl.ParseRulesLocated(bytes.NewReader(in.rulesText))
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated rules do not parse: %v", err))
	}
	return g, names, rules, lines
}

// confirmAll checks every violation with the benchmark's evaluator.
func (in *inputs) confirmAll(m *mirror, vs map[string]core.Violation) error {
	for _, k := range sortedKeys(vs) {
		if err := in.confirm(m, vs[k].Rule.Name, matchIDs(vs[k].Match)); err != nil {
			return err
		}
	}
	return nil
}

// confirm checks one reported violation against the generated Σ.
func (in *inputs) confirm(m *mirror, rule string, match []int32) error {
	r := in.rule(rule)
	if r == nil {
		return fmt.Errorf("violation of unknown rule %q", rule)
	}
	return m.checkViolation(r, match)
}

func (in *inputs) rule(name string) *core.NGD {
	for _, r := range in.rules.Rules {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// referenceVio is Vio(Σ, G) by two routes that share no pruning, no
// cross-rule sharing and no shard runtime with the measured path: the
// unpruned per-rule Dect and PDect. They must agree with each other and
// with the evaluator on m, the benchmark's mirror of g.
func (in *inputs) referenceVio(g graph.View, rules *core.Set, m *mirror) (map[string]core.Violation, error) {
	plain := plan.New(g, rules, plan.Options{NoPruning: true, NoSharing: true})
	ref := keysOf(detect.Dect(g, rules, detect.Options{NoPruning: true, Program: plain}).Violations)
	pd := keysOf(par.PDect(g, rules, par.Hybrid(runtime.NumCPU())).Violations)
	if err := sameKeys(ref, pd); err != nil {
		return nil, fmt.Errorf("PDect disagrees with per-rule Dect: %v", err)
	}
	if err := in.confirmAll(m, ref); err != nil {
		return nil, fmt.Errorf("reference violation rejected by the evaluator: %v", err)
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("the generated workload has no violation")
	}
	return ref, nil
}

// checkComplete compares a store with Vio(Σ, G) computed afresh on g.
// The event and cycle-end checks only confirm what commits reported: a
// violation a forward commit misses never enters the store, the inverse
// commits drop nothing for it, and the cycle ends on the start store. So
// the stream workloads call this at the peak of a cycle, after its forward
// batches, outside the timed operations.
func (in *inputs) checkComplete(g graph.View, rules *core.Set, m *mirror, store map[string]core.Violation) error {
	ref, err := in.referenceVio(g, rules, m)
	if err != nil {
		return err
	}
	return sameKeys(ref, store)
}

// peaks says whether the check at the peak of cycle c of cycles runs: on
// the first cycle and the last, so a miss that needs earlier cycles' state
// shows too.
func peaks(c, cycles int) bool { return c == 0 || c == cycles-1 }

// runDetect measures batch Dect over the static graph. One operation is
// one Dect call on the warm program.
func runDetect(in *inputs, tr *tracer, seconds int) *run {
	r := &run{}
	ops := max(seconds*in.cfg.DetectOps, 1)
	r.lat = make([]time.Duration, 0, ops)

	var g *graph.Graph
	var rules *core.Set
	var prog *plan.Program
	open := func() (*plan.Program, error) {
		g, _, rules, _ = in.loadProgram(tr)
		sp := tr.begin("plan.build", -1)
		defer tr.end(sp)
		prog := plan.New(g, rules, plan.Options{})
		prog.ShareFor(g, rules, false)
		return prog, nil
	}
	noClose := func(*plan.Program) {}
	prog, _ = setups(r, in.cfg.SetupRep/2, open, noClose)
	ref, err := in.referenceVio(g, rules, in.start)
	if err != nil {
		r.invalid("set-up: %v", err)
		return r
	}

	mem := startMem()
	planBefore := prog.Counters()
	var cands, checks, vios int
	var runs []time.Duration
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		var got []core.Violation
		if tr.on {
			// Dect is ShareFor plus RunShared; traced, the two are timed apart
			sp := tr.begin("detect.op", -1)
			s1 := tr.begin("plan.share", sp)
			sh := prog.ShareFor(g, rules, false)
			tr.end(s1)
			s2 := tr.begin("detect.run", sp)
			t1 := time.Now()
			c := detect.RunShared(g, sh, func(rule *core.NGD, m core.Match) bool {
				got = append(got, core.Violation{Rule: rule, Match: m.Clone()})
				return true
			})
			runs = append(runs, time.Since(t1))
			tr.end(s2)
			tr.end(sp)
			cands, checks = c.Candidates, c.Checks
		} else {
			got = detect.Dect(g, rules, detect.Options{Program: prog}).Violations
		}
		r.lat = append(r.lat, time.Since(t0))
		r.attempted++
		vios = len(got)
		if err := sameKeys(ref, keysOf(got)); err != nil {
			r.fail("Dect run %d: %v", i, err)
		}
	}
	if tr.on {
		mem.report(r, ops)
		pc := prog.Counters().Sub(planBefore)
		n := float64(ops)
		r.set("plan.hits", float64(pc.Hits)/n)
		r.set("plan.misses", float64(pc.Misses)/n)
		r.set("plan.invalidations", float64(pc.Invalidations)/n)
		r.set("match.candidates", float64(cands))
		r.set("match.checks", float64(checks))
		r.set("detect.violations", float64(vios))
		run := medianDur(runs)
		r.set("detect.run_ms", ms(run))
		r.set("plan.share_ms", ms(medianDur(tr.durations("plan.share"))))
		r.set("plan.build_ms", ms(medianDur(tr.durations("plan.build"))))
		r.set("dsl.load_ms", ms(medianDur(tr.durations("dsl.load"))))
		if cands > 0 {
			r.set("detect.ns_per_candidate", float64(run)/float64(cands))
		}
	}
	r.facts = fmt.Sprintf("nodes=%d edges=%d rules=%d violations=%d", g.NumNodes(), g.NumEdges(), len(rules.Rules), len(ref))
	r.heapBytes = programHeap(func() { g, rules, prog = nil, nil, nil })
	setupsAfter(r, in.cfg.SetupRep-in.cfg.SetupRep/2, open, noClose)
	runtime.KeepAlive(in)
	runtime.KeepAlive(ref)
	return r
}
