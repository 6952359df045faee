package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"ngd/internal/core"
	"ngd/internal/dsl"
	"ngd/internal/gen"
	"ngd/internal/graph"
	"ngd/internal/update"
)

// config sizes every workload. Each run does a fixed number of whole
// cycles, so the state an operation sees depends only on its index in the
// stream; the counts are derived from --seconds with fixed nominal rates
// (see cyclesFor).
type config struct {
	N        int // generated entities (yago2 profile)
	Rules    int // ‖Σ‖
	MaxDiam  int // rule pattern diameter cap
	SetupRep int // set-ups per run, half before the measured phase and half after; setup_s is their median

	DetectOps int // Dect runs per second of --seconds (nominal)

	StreamW   int     // forward batches per stream cycle
	StreamPct float64 // stream batch size as a share of |E|
	StreamOps int     // stream commits per second of --seconds (nominal)

	IngestW     int // forward requests per ingest cycle
	IngestEdges int // update.Random size of one ingest request
	IngestAttrs int // setattr ops per ingest request
	IngestOps   int // ingest requests per second of --seconds (nominal)

	ReadOps    int // read rounds (four requests) per second of --seconds (nominal)
	WriterW    int // forward requests per read-writer cycle
	WriterRate int // read-writer requests per second (open loop)
	WriterSize int // update.Random size of one read-writer request
}

// fullConfig is the configuration BENCHMARK.json runs.
func fullConfig() config {
	return config{
		N: 1200, Rules: 50, MaxDiam: 5, SetupRep: 16,
		DetectOps: 10,
		StreamW:   6, StreamPct: 0.05, StreamOps: 30,
		IngestW: 32, IngestEdges: 56, IngestAttrs: 4, IngestOps: 180,
		ReadOps: 600, WriterW: 16, WriterRate: 10, WriterSize: 16,
	}
}

// tinyConfig is the short mode the benchmark's own tests run.
func tinyConfig() config {
	return config{
		N: 300, Rules: 20, MaxDiam: 5, SetupRep: 2,
		DetectOps: 3,
		StreamW:   2, StreamPct: 0.05, StreamOps: 4,
		IngestW: 4, IngestEdges: 24, IngestAttrs: 2, IngestOps: 8,
		ReadOps: 10, WriterW: 2, WriterRate: 20, WriterSize: 8,
	}
}

// inputs are everything generated from the seed, before the program sees
// any of it. The program receives graphText and rulesText (and, through
// the cycle templates, the update requests); the dataset and the mirror
// stay on the benchmark's side.
type inputs struct {
	cfg       config
	seed      int64
	ds        *gen.Dataset
	rules     *core.Set // the generated Σ, the evaluator's reference
	graphText []byte
	rulesText []byte
	start     *mirror // G as the program loads it
}

func makeInputs(cfg config, seed int64) *inputs {
	p := gen.YAGO2
	ds := gen.Generate(p, cfg.N, seed)
	rules := gen.Rules(p, gen.RuleConfig{Count: cfg.Rules, MaxDiameter: cfg.MaxDiam, Seed: seed})
	var gb bytes.Buffer
	if err := dsl.WriteGraph(&gb, ds.G); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return &inputs{
		cfg: cfg, seed: seed, ds: ds, rules: rules,
		graphText: gb.Bytes(),
		rulesText: []byte(dsl.FormatRules(rules)),
		start:     mirrorOf(ds.G),
	}
}

// ref names a node in a cycle template: ≥ 0 is a node of the start graph,
// < 0 is the cycle's arriving node -(ref+1).
type ref int32

func localRef(i int) ref { return ref(-(i + 1)) }

type arrival struct {
	label string
	val   int64
	prop  bool // property node carrying val; otherwise an entity without attributes
}

type edgeOp struct {
	insert   bool
	src, dst ref
	label    string
}

type attrOp struct {
	node ref
	val  int64
}

// batch is one commit's worth of unit updates: arriving nodes, effective
// edge ops (each changes G) and val reassignments of start-graph nodes.
type batch struct {
	arrivals []int // indices into cycle.arrivals
	edges    []edgeOp
	attrs    []attrOp
}

// units is the number of unit updates the batch commits.
func (b batch) units() int { return len(b.arrivals) + len(b.edges) + len(b.attrs) }

// cycle is W forward batches followed by their exact inverses in reverse
// order: replaying it returns the edge set and every attribute to the
// start state, so the store returns to the start store.
type cycle struct {
	arrivals []arrival
	batches  []batch
}

// genCycle draws w forward batches from update.Random on the benchmark's
// own dataset, reduces each to its effective ops against the evolving
// state, and appends the inverses. attrSets val reassignments ride each
// forward batch. The dataset's graph is left with the arrivals as
// isolated nodes; its edges return to the start.
func (in *inputs) genCycle(w, size, attrSets int, seed int64) cycle {
	ds := in.ds
	startN := len(in.start.labels)
	base := ds.G.NumNodes() // earlier cycles' arrivals sit in [startN, base)
	edges := make(map[ekey]bool, len(in.start.edges))
	for k := range in.start.edges {
		edges[k] = true
	}
	vals := map[int32]int64{}
	var props []int32
	for _, pn := range ds.PropNode {
		for k := 1; k <= 5; k++ {
			props = append(props, int32(pn[k]))
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	syms := ds.G.Symbols()

	var cy cycle
	toRef := func(v graph.NodeID) ref {
		switch {
		case int(v) < startN:
			return ref(v)
		case int(v) >= base:
			return localRef(int(v) - base)
		}
		panic(fmt.Sprintf("perfbench: update references node %d of an earlier cycle", v))
	}
	fromRef := func(r ref) int32 {
		if r >= 0 {
			return int32(r)
		}
		return int32(base + int(-r-1))
	}
	apply := func(ops []edgeOp) {
		for _, op := range ops {
			k := ekey{fromRef(op.src), fromRef(op.dst), op.label}
			l := syms.Label(op.label)
			if op.insert {
				edges[k] = true
				ds.G.AddEdgeL(graph.NodeID(k.src), graph.NodeID(k.dst), l)
			} else {
				delete(edges, k)
				ds.G.DeleteEdgeL(graph.NodeID(k.src), graph.NodeID(k.dst), l)
			}
		}
	}
	var inverses []batch
	for b := 0; b < w; b++ {
		lo := ds.G.NumNodes()
		d := update.Random(ds, update.Config{Size: size, Gamma: 1, Seed: seed*1009 + int64(b)})
		var fw batch
		for v := lo; v < ds.G.NumNodes(); v++ {
			a := arrival{label: ds.G.LabelName(graph.NodeID(v))}
			if val, ok := ds.G.AttrByName(graph.NodeID(v), "val").AsInt(); ok {
				a.val, a.prop = val, true
			}
			fw.arrivals = append(fw.arrivals, len(cy.arrivals))
			cy.arrivals = append(cy.arrivals, a)
		}
		// effective ops: the last op per edge wins, and only ops that
		// change the current edge set are kept
		type pending struct {
			k      ekey
			insert bool
		}
		last := map[ekey]int{}
		var order []pending
		for _, op := range d.Ops {
			k := ekey{int32(op.Src), int32(op.Dst), syms.LabelName(op.Label)}
			if i, ok := last[k]; ok {
				order[i].insert = op.Insert
				continue
			}
			last[k] = len(order)
			order = append(order, pending{k, op.Insert})
		}
		for _, p := range order {
			if p.insert != edges[p.k] {
				fw.edges = append(fw.edges, edgeOp{p.insert,
					toRef(graph.NodeID(p.k.src)), toRef(graph.NodeID(p.k.dst)), p.k.label})
			}
		}
		apply(fw.edges)
		var inv batch
		for i := len(fw.edges) - 1; i >= 0; i-- {
			op := fw.edges[i]
			op.insert = !op.insert
			inv.edges = append(inv.edges, op)
		}
		// val reassignments on distinct start-graph property nodes
		picked := map[int32]bool{}
		for len(fw.attrs) < attrSets && len(picked) < len(props) {
			n := props[rng.Intn(len(props))]
			if picked[n] {
				continue
			}
			picked[n] = true
			old, ok := vals[n]
			if !ok {
				old = in.start.attrs[n]["val"].i
			}
			nv := rng.Int63n(ds.Profile.ValueRange)
			vals[n] = nv
			fw.attrs = append(fw.attrs, attrOp{ref(n), nv})
			inv.attrs = append(inv.attrs, attrOp{ref(n), old})
		}
		cy.batches = append(cy.batches, fw)
		inverses = append(inverses, inv)
	}
	for i := len(inverses) - 1; i >= 0; i-- {
		apply(inverses[i].edges)
		cy.batches = append(cy.batches, inverses[i])
	}
	if len(edges) != len(in.start.edges) {
		panic(fmt.Sprintf("perfbench: cycle inverse left %d edges, start has %d", len(edges), len(in.start.edges)))
	}
	return cy
}

// placed maps a cycle template onto one replay of it: the replay's arriving
// nodes get fresh ids first..first+len(arrivals) and external names
// <prefix>n<local>.
type placed struct {
	cy     *cycle
	first  int32
	prefix string
}

func (p placed) id(r ref) int32 {
	if r >= 0 {
		return int32(r)
	}
	return p.first + int32(-r-1)
}

func (p placed) name(r ref) string {
	if r >= 0 {
		return fmt.Sprint(int32(r))
	}
	return fmt.Sprintf("%sn%d", p.prefix, -r-1)
}

// applyTo replays batch b of the placement onto the mirror.
func (p placed) applyTo(m *mirror, b int) {
	bt := p.cy.batches[b]
	for _, i := range bt.arrivals {
		a := p.cy.arrivals[i]
		var attrs map[string]value
		if a.prop {
			attrs = map[string]value{"val": intValue(a.val)}
		}
		m.addNode(a.label, attrs)
	}
	for _, op := range bt.edges {
		k := ekey{p.id(op.src), p.id(op.dst), op.label}
		if op.insert {
			m.edges[k] = struct{}{}
		} else {
			delete(m.edges, k)
		}
	}
	for _, op := range bt.attrs {
		m.attrs[p.id(op.node)]["val"] = intValue(op.val)
	}
}

// sortedKeys returns the keys of a violation set in canonical order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
