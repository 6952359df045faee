package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/par"
	"ngd/internal/session"
	"ngd/internal/update"
)

// cyclesFor is the number of whole cycles of cycleLen operations that
// covers seconds at the nominal rate.
func cyclesFor(seconds, perSecond, cycleLen int) int {
	return max((seconds*perSecond+cycleLen/2)/cycleLen, 1)
}

// commitLocal commits batch b of a placed cycle through the session:
// arriving nodes land on the session's graph first, then the edge delta
// and the val reassignments commit as one batch. onNode, when set, sees
// each arrival's external name and node before the commit.
func commitLocal(sess *session.Session, pl placed, b int, onNode func(string, graph.NodeID)) session.BatchStats {
	g := sess.Graph()
	bt := pl.cy.batches[b]
	for _, i := range bt.arrivals {
		a := pl.cy.arrivals[i]
		v := g.AddNode(a.label)
		if a.prop {
			g.SetAttr(v, "val", graph.Int(a.val))
		}
		if int32(v) != pl.first+int32(i) {
			panic(fmt.Sprintf("perfbench: arrival got node %d, want %d", v, pl.first+int32(i)))
		}
		if onNode != nil {
			onNode(pl.name(localRef(i)), v)
		}
	}
	syms := g.Symbols()
	d := &graph.Delta{Ops: make([]graph.EdgeOp, 0, len(bt.edges))}
	for _, op := range bt.edges {
		src, dst := graph.NodeID(pl.id(op.src)), graph.NodeID(pl.id(op.dst))
		if op.insert {
			d.Insert(src, dst, syms.Label(op.label))
		} else {
			d.Delete(src, dst, syms.Label(op.label))
		}
	}
	var attrs []graph.AttrOp
	if len(bt.attrs) > 0 {
		val := syms.Attr("val")
		for _, op := range bt.attrs {
			attrs = append(attrs, graph.AttrOp{Node: graph.NodeID(pl.id(op.node)), Attr: val, Val: graph.Int(op.val)})
		}
	}
	return sess.CommitBatch(d, attrs)
}

// eventChecker follows a stream of commit events: it replays each over the
// store it has seen so far and confirms that every added violation holds
// on the mirror and every removed one no longer does.
type eventChecker struct {
	in     *inputs
	m      *mirror
	replay map[string]bool
}

func newEventChecker(in *inputs, m *mirror, start map[string]core.Violation) *eventChecker {
	c := &eventChecker{in: in, m: m, replay: make(map[string]bool, len(start))}
	for k := range start {
		c.replay[k] = true
	}
	return c
}

type vioRef struct {
	key, rule string
	match     []int32
}

func (c *eventChecker) apply(epoch int, added []vioRef, removed []string) error {
	for _, k := range removed {
		if !c.replay[k] {
			return fmt.Errorf("epoch %d removes %s, which the store did not hold", epoch, k)
		}
		delete(c.replay, k)
		rule, match, err := parseKey(k)
		if err != nil {
			return err
		}
		if r := c.in.rule(rule); r == nil || c.m.isViolation(r, match) {
			return fmt.Errorf("epoch %d removes %s, which is still a violation", epoch, k)
		}
	}
	for _, v := range added {
		if c.replay[v.key] {
			return fmt.Errorf("epoch %d adds %s, which the store already held", epoch, v.key)
		}
		if err := c.in.confirm(c.m, v.rule, v.match); err != nil {
			return fmt.Errorf("epoch %d adds %s: %v", epoch, v.key, err)
		}
		c.replay[v.key] = true
	}
	return nil
}

func eventRefs(vs []core.Violation) []vioRef {
	out := make([]vioRef, len(vs))
	for i, v := range vs {
		out[i] = vioRef{v.Key(), v.Rule.Name, matchIDs(v.Match)}
	}
	return out
}

func eventKeys(vs []core.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Key()
	}
	return out
}

// parseKey splits a canonical violation key rule:id:id:... .
func parseKey(k string) (string, []int32, error) {
	var ids []int32
	end := len(k)
	for i := len(k) - 1; i >= 0; i-- {
		if k[i] != ':' {
			continue
		}
		id, err := strconv.ParseInt(k[i+1:end], 10, 32)
		if err != nil {
			break // the rest belongs to the rule name
		}
		ids = append([]int32{int32(id)}, ids...)
		end = i
	}
	if end == len(k) || len(ids) == 0 {
		return "", nil, fmt.Errorf("malformed violation key %q", k)
	}
	return k[:end], ids, nil
}

// runStream measures in-process commits of paper-sized ΔG through
// PIncDect at p = nproc, in forward/undo cycles. One operation is one
// commit, arrivals included.
func runStream(in *inputs, tr *tracer, seconds int) *run {
	r := &run{}
	cy := in.genCycle(in.cfg.StreamW, update.SizeFor(in.ds.G, in.cfg.StreamPct), 0, in.seed)
	cycles := cyclesFor(seconds, in.cfg.StreamOps, len(cy.batches))
	ops := cycles * len(cy.batches)
	r.lat = make([]time.Duration, 0, ops)
	units := make([]float64, 0, ops)
	m := in.start.clone()
	stats := make([]session.BatchStats, 0, ops)

	opts := session.Options{Parallel: true, Par: par.Hybrid(runtime.NumCPU())}
	var rules *core.Set
	open := func() (*session.Session, error) {
		var g *graph.Graph
		g, _, rules, _ = in.loadProgram(tr)
		sp := tr.begin("session.open", -1)
		defer tr.end(sp)
		return session.New(g, rules, opts), nil
	}
	sess, _ := setups(r, in.cfg.SetupRep/2, open, (*session.Session).Close)
	start := keysOf(sess.Violations())
	ref, err := in.referenceVio(sess.Graph(), rules, in.start)
	if err == nil {
		err = sameKeys(ref, start)
	}
	if err != nil {
		sess.Close()
		r.invalid("seeded store: %v", err)
		return r
	}
	ev := newEventChecker(in, m, start)

	mem := startMem()
	for c := 0; c < cycles; c++ {
		pl := placed{cy: &cy, first: int32(sess.Graph().NumNodes()), prefix: fmt.Sprintf("c%d", c)}
		for b := range cy.batches {
			sp := tr.begin("session.commit", -1)
			t0 := time.Now()
			bs := commitLocal(sess, pl, b, nil)
			r.lat = append(r.lat, time.Since(t0))
			tr.end(sp)
			r.attempted++
			units = append(units, float64(cy.batches[b].units()))
			stats = append(stats, bs)
			pl.applyTo(m, b)
			if err := ev.apply(bs.Event.Epoch, eventRefs(bs.Event.Added), eventKeys(bs.Event.Removed)); err != nil {
				r.fail("commit %d: %v", bs.Batch, err)
			}
			if b == in.cfg.StreamW-1 && peaks(c, cycles) {
				if err := in.checkComplete(sess.Graph(), rules, m, keysOf(sess.Violations())); err != nil {
					r.fail("at the peak of cycle %d: %v", c, err)
				}
			}
		}
		if err := sameKeys(start, keysOf(sess.Violations())); err != nil {
			r.fail("after cycle %d the store differs from the start store: %v", c, err)
		}
	}
	if err := sameKeys(ev.replay, keysOf(sess.Violations())); err != nil {
		r.invalid("feed replay over the start store: %v", err)
	}
	if tr.on {
		mem.report(r, ops)
		streamLayers(r, tr, stats, units, true)
	}
	r.facts = fmt.Sprintf("cycles=%d W=%d batch_ops=%d arrivals_per_cycle=%d violations=%d",
		cycles, in.cfg.StreamW, update.SizeFor(in.ds.G, in.cfg.StreamPct), len(cy.arrivals), len(start))
	sess.Close()
	r.heapBytes = programHeap(func() { sess, rules = nil, nil })
	setupsAfter(r, in.cfg.SetupRep-in.cfg.SetupRep/2, open, (*session.Session).Close)
	runtime.KeepAlive(in)
	runtime.KeepAlive(ev)
	runtime.KeepAlive(stats)
	return r
}

// streamLayers sets the session, par and partition metrics from the
// per-commit statistics: means per commit.
func streamLayers(r *run, tr *tracer, stats []session.BatchStats, units []float64, parallel bool) {
	n := float64(max(len(stats), 1))
	var ops, plus, minus, absorbed, attrs, cost, pivots, placed, moved, hits, misses, inval float64
	for _, s := range stats {
		ops += float64(s.Ops)
		plus += float64(s.Plus)
		minus += float64(s.Minus)
		absorbed += float64(s.Absorbed)
		attrs += float64(s.AttrSets)
		cost += s.Cost
		pivots += float64(s.Pivots)
		placed += float64(s.PartPlaced)
		moved += float64(s.PartMoved)
		hits += float64(s.PlanHits)
		misses += float64(s.PlanMisses)
		inval += float64(s.PlanInvalidations)
	}
	r.set("session.ops", ops/n)
	r.set("session.plus", plus/n)
	r.set("session.minus", minus/n)
	r.set("session.absorbed", absorbed/n)
	r.set("session.attr_sets", attrs/n)
	r.set("plan.hits", hits/n)
	r.set("plan.misses", misses/n)
	r.set("plan.invalidations", inval/n)
	if parallel {
		r.set("par.makespan_units", cost/n)
		r.set("partition.placed", placed/n)
		r.set("partition.moved", moved/n)
	} else {
		r.set("inc.pivots", pivots/n)
		r.set("inc.cost_units", cost/n)
	}
	commits := tr.durations("session.commit")
	r.set("session.commit_ms", ms(medianDur(commits)))
	r.set("session.updates_per_s", windowRate(commits, func(i int) float64 { return units[i] }))
	r.set("dsl.load_ms", ms(medianDur(tr.durations("dsl.load"))))
}
