package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/gen"
	"ngd/internal/pattern"
	"ngd/internal/session"
	"ngd/internal/update"
)

// TestWorkloadsTiny runs every workload end to end on tiny inputs: each
// must check out with no failed operation and report every end-to-end
// metric as a positive number.
func TestWorkloadsTiny(t *testing.T) {
	t.Chdir(t.TempDir())
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			res, summary := execute(fn, tinyConfig(), name, 7, 1, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s: %+v", summary, res)
			}
			for _, m := range []string{"setup_s", "p50_ms", "heap_mb"} {
				if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("%s: metric %s = %+v", name, m, v)
				}
			}
			if len(res.Metrics) != 3 {
				t.Errorf("%s: %d end-to-end metrics, want 3", name, len(res.Metrics))
			}
		})
	}
}

// TestTracedRun checks that the traced mode reports every per-layer metric
// (the ingest workload's traced run times the admission gate, which runs
// to its 30 s budget, so it is left to the benchmark itself).
func TestTracedRun(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, name := range []string{"detect", "stream", "read"} {
		res, summary := execute(workloads[name], tinyConfig(), name, 3, 1, true)
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: %+v", summary, res)
		}
		if len(res.Metrics) != len(layerMetrics) {
			t.Fatalf("%s: %d per-layer metrics, want %d", name, len(res.Metrics), len(layerMetrics))
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(out, &keys); err != nil || len(keys) != 4 {
			t.Fatalf("result line %s", out)
		}
	}
}

// sumFixture is x -p1-> a, x -p2-> b, x -p3-> c with a+b ≠ c: one
// violation of the sum rule.
func sumFixture() (*mirror, *core.NGD, []int32) {
	m := &mirror{edges: map[ekey]struct{}{}}
	m.addNode("T0", nil)
	for _, v := range []int64{1, 2, 4} {
		m.addNode("integer", map[string]value{"val": intValue(v)})
	}
	for i, l := range []string{"p1", "p2", "p3"} {
		m.edges[ekey{0, int32(i + 1), l}] = struct{}{}
	}
	return m, gen.SumRule(0, 0), []int32{0, 1, 2, 3}
}

// TestEvaluatorFlippedWitness plants faults in the witness of a true
// violation: each must make the evaluator reject it.
func TestEvaluatorFlippedWitness(t *testing.T) {
	m, r, match := sumFixture()
	if err := m.checkViolation(r, match); err != nil {
		t.Fatalf("true violation rejected: %v", err)
	}
	flipped := m.clone()
	flipped.attrs[3]["val"] = intValue(3) // 1 + 2 = 3: the Y literal now holds
	if flipped.isViolation(r, match) {
		t.Error("a flipped Y literal was not caught")
	}
	noEdge := m.clone()
	delete(noEdge.edges, ekey{0, 3, "p3"})
	if noEdge.isViolation(r, match) {
		t.Error("a missing pattern edge was not caught")
	}
	if m.isViolation(r, []int32{1, 0, 2, 3}) {
		t.Error("a mislabelled binding was not caught")
	}

	// a conditional rule: flag = 1 ⇒ p2 = 7; flipping the X literal
	q := pattern.New()
	x := q.AddNode("x", "T0")
	f := q.AddNode("f", "integer")
	c := q.AddNode("c", "integer")
	q.AddEdge(x, f, "flag")
	q.AddEdge(x, c, "p2")
	flag := core.MustNew("flag", q, []core.Literal{core.Lit(expr.V("f", "val"), expr.Eq, expr.C(1))},
		[]core.Literal{core.Lit(expr.V("c", "val"), expr.Eq, expr.C(7))})
	fm := &mirror{edges: map[ekey]struct{}{{0, 1, "flag"}: {}, {0, 2, "p2"}: {}}}
	fm.addNode("T0", nil)
	fm.addNode("integer", map[string]value{"val": intValue(1)})
	fm.addNode("integer", map[string]value{"val": intValue(8)})
	if err := fm.checkViolation(flag, []int32{0, 1, 2}); err != nil {
		t.Fatalf("true violation rejected: %v", err)
	}
	fm.attrs[1]["val"] = intValue(0)
	if fm.isViolation(flag, []int32{0, 1, 2}) {
		t.Error("a flipped X literal was not caught")
	}
}

// TestEvaluatorArithmetic pins the exact semantics: rationals, abs, a
// missing attribute or a division by zero fails the literal.
func TestEvaluatorArithmetic(t *testing.T) {
	m := &mirror{edges: map[ekey]struct{}{}}
	m.addNode("T0", map[string]value{"a": intValue(-7), "s": {kind: 's', s: "x"}})
	nodes := []pattern.Node{{Var: "x", Label: "T0"}}
	for src, want := range map[string]bool{
		"|x.a| = 7":        true,
		"x.a / 2 < -3":     true,
		"x.a / 2 = -3":     false,
		"x.a * 3 + 21 = 0": true,
		"x.missing = 0":    false,
		"x.missing != 0":   false,
		"x.a / 0 = 0":      false,
		`x.s = "x"`:        true,
		"x.s = 1":          false,
		"9223372036854775807 + 9223372036854775807 > 0": true,
	} {
		l, err := core.ParseLiteral(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := m.holds(nodes, []int32{0}, l); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

// TestDroppedKeyCaught: the key-set comparison behind every store check
// reports a dropped or an extra violation.
func TestDroppedKeyCaught(t *testing.T) {
	in := makeInputs(tinyConfig(), 5)
	g, _, rules, _ := in.loadProgram(newTracer(false))
	ref, err := in.referenceVio(g, rules, in.start)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]core.Violation{}
	for k, v := range ref {
		got[k] = v
	}
	if err := sameKeys(ref, got); err != nil {
		t.Fatal(err)
	}
	dropped := sortedKeys(ref)[0]
	delete(got, dropped)
	if err := sameKeys(ref, got); err == nil || !strings.Contains(err.Error(), dropped) {
		t.Errorf("dropped key %s not caught: %v", dropped, err)
	}
	got[dropped] = ref[dropped]
	got["sum-T0-0:1:2:3:4"] = ref[dropped]
	if err := sameKeys(ref, got); err == nil {
		t.Error("an extra key was not caught")
	}
}

// TestSkippedInverseCaught replays a cycle with one inverse op left out:
// the restoring insert of an edge some start violation uses. The store at
// the end of the cycle must differ from the start store.
func TestSkippedInverseCaught(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := makeInputs(tinyConfig(), seed)
		cy := in.genCycle(3, update.SizeFor(in.ds.G, 0.2), 0, seed)
		g, _, rules, _ := in.loadProgram(newTracer(false))
		sess := session.New(g, rules, session.Options{})
		start := keysOf(sess.Violations())
		used := map[ekey]bool{}
		for _, v := range start {
			for _, e := range v.Rule.Pattern.Edges {
				used[ekey{int32(v.Match[e.Src]), int32(v.Match[e.Dst]), e.Label}] = true
			}
		}
		skipB, skipI := -1, -1
		for b := len(cy.batches) / 2; b < len(cy.batches) && skipB < 0; b++ {
			for i, op := range cy.batches[b].edges {
				if op.insert && op.src >= 0 && op.dst >= 0 && used[ekey{int32(op.src), int32(op.dst), op.label}] {
					skipB, skipI = b, i
					break
				}
			}
		}
		if skipB < 0 {
			sess.Close()
			continue // this seed's cycle restores no edge of a start violation
		}
		bt := &cy.batches[skipB]
		bt.edges = append(bt.edges[:skipI:skipI], bt.edges[skipI+1:]...)
		pl := placed{cy: &cy, first: int32(g.NumNodes()), prefix: "c0"}
		for b := range cy.batches {
			commitLocal(sess, pl, b, nil)
		}
		err := sameKeys(start, keysOf(sess.Violations()))
		sess.Close()
		if err == nil {
			t.Fatalf("seed %d: a skipped inverse op left the store equal to the start store", seed)
		}
		return
	}
	t.Fatal("no seed in 1..20 restores an edge of a start violation")
}

// TestCycleReturnsToStart is the property the skipped-inverse case breaks.
func TestCycleReturnsToStart(t *testing.T) {
	in := makeInputs(tinyConfig(), 5)
	cy := in.genCycle(3, update.SizeFor(in.ds.G, 0.2), 2, 5)
	g, _, rules, _ := in.loadProgram(newTracer(false))
	sess := session.New(g, rules, session.Options{})
	defer sess.Close()
	start := keysOf(sess.Violations())
	m := in.start.clone()
	ev := newEventChecker(in, m, start)
	for c := 0; c < 2; c++ {
		pl := placed{cy: &cy, first: int32(g.NumNodes()), prefix: fmt.Sprintf("c%d", c)}
		for b := range cy.batches {
			bs := commitLocal(sess, pl, b, nil)
			pl.applyTo(m, b)
			if err := ev.apply(bs.Batch, eventRefs(bs.Event.Added), eventKeys(bs.Event.Removed)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameKeys(start, keysOf(sess.Violations())); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	// a planted event fault: replaying a removal twice
	if err := ev.apply(99, nil, []string{sortedKeys(start)[0], sortedKeys(start)[0]}); err == nil {
		t.Error("a duplicate removal was not caught")
	}
}

// TestMissedAdditionCaught plants a commit that misses one violation it
// adds: the key is dropped from the forward commit's event and from the
// store, and so also from the inverse commit that would remove it. The
// event checks and the cycle-end check pass; the check at the peak fails.
func TestMissedAdditionCaught(t *testing.T) {
	const w = 3
	for seed := int64(1); seed <= 20; seed++ {
		in := makeInputs(tinyConfig(), seed)
		cy := in.genCycle(w, update.SizeFor(in.ds.G, 0.2), 1, seed)
		// a violation the forward batches add and the peak still holds
		missed := ""
		g, _, rules, _ := in.loadProgram(newTracer(false))
		sess := session.New(g, rules, session.Options{})
		start := keysOf(sess.Violations())
		pl := placed{cy: &cy, first: int32(g.NumNodes()), prefix: "c0"}
		for b := 0; b < w; b++ {
			commitLocal(sess, pl, b, nil)
		}
		for _, k := range sortedKeys(keysOf(sess.Violations())) {
			if _, ok := start[k]; !ok && missed == "" {
				missed = k
			}
		}
		sess.Close()
		if missed == "" {
			continue // this seed's cycle adds no violation that lasts to its peak
		}

		g, _, rules, _ = in.loadProgram(newTracer(false))
		sess = session.New(g, rules, session.Options{})
		m := in.start.clone()
		ev := newEventChecker(in, m, start)
		for b := range cy.batches {
			bs := commitLocal(sess, pl, b, nil)
			pl.applyTo(m, b)
			added := slices.DeleteFunc(eventRefs(bs.Event.Added), func(v vioRef) bool { return v.key == missed })
			removed := slices.DeleteFunc(eventKeys(bs.Event.Removed), func(k string) bool { return k == missed })
			if err := ev.apply(bs.Batch, added, removed); err != nil {
				t.Fatalf("seed %d: the event checks caught the planted miss: %v", seed, err)
			}
			if b != w-1 {
				continue
			}
			peak := keysOf(sess.Violations())
			if err := in.checkComplete(g, rules, m, peak); err != nil {
				t.Fatalf("seed %d: the true store at the peak was rejected: %v", seed, err)
			}
			delete(peak, missed)
			if err := in.checkComplete(g, rules, m, peak); err == nil || !strings.Contains(err.Error(), missed) {
				t.Fatalf("seed %d: the missed violation %s was not caught at the peak: %v", seed, missed, err)
			}
		}
		err := sameKeys(start, keysOf(sess.Violations()))
		sess.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sameKeys(ev.replay, start); err != nil {
			t.Fatalf("seed %d: the event replay caught the planted miss: %v", seed, err)
		}
		return
	}
	t.Fatal("no seed in 1..20 adds a violation that lasts to the peak")
}

// TestReorderedPageCaught plants faults in a page: swapped rows, a
// duplicated row, a row outside the filter, a row before the cursor.
func TestReorderedPageCaught(t *testing.T) {
	p := page{Violations: []pageVio{
		{"r:1:2", "r", []int32{1, 2}},
		{"r:1:3", "r", []int32{1, 3}},
		{"r:2:3", "r", []int32{2, 3}},
	}, Returned: 3, Next: "r:2:3"}
	if err := checkPage(p, "", "r", -1); err != nil {
		t.Fatalf("a good page rejected: %v", err)
	}
	if err := checkPage(p, "r:0:9", "", 1); err == nil {
		t.Error("a row outside the node filter was not caught")
	}
	if err := checkPage(p, "r:1:2", "", -1); err == nil {
		t.Error("a row at the cursor was not caught")
	}
	swapped := p
	swapped.Violations = []pageVio{p.Violations[1], p.Violations[0], p.Violations[2]}
	if err := checkPage(swapped, "", "", -1); err == nil {
		t.Error("a reordered page was not caught")
	}
	dup := p
	dup.Violations = []pageVio{p.Violations[0], p.Violations[0], p.Violations[2]}
	if err := checkPage(dup, "", "", -1); err == nil {
		t.Error("a duplicated row was not caught")
	}
	if err := checkPage(p, "", "s", -1); err == nil {
		t.Error("a row outside the rule filter was not caught")
	}
}

func TestParseKey(t *testing.T) {
	rule, ids, err := parseKey("sum-T3-0:12:7:0")
	if err != nil || rule != "sum-T3-0" || fmt.Sprint(ids) != "[12 7 0]" {
		t.Fatalf("parseKey = %q %v %v", rule, ids, err)
	}
	if _, _, err := parseKey("no-ids"); err == nil {
		t.Error("a key without ids parsed")
	}
}

// TestQuartiles matches Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the result lines
// in step: the same metric names with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := (&run{}).endToEnd()
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("%d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
	if len(layerMetrics) != len(spec.PerLayer) {
		t.Fatalf("%d per-layer metrics, BENCHMARK.json lists %d", len(layerMetrics), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit {
			t.Errorf("per-layer %d: %+v, BENCHMARK.json has %s (%s)", i, layerMetrics[i], m.Name, m.Unit)
		}
	}
}
