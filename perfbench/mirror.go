package main

import (
	"fmt"
	"math/big"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/graph"
	"ngd/internal/pattern"
)

// mirror is the benchmark's own copy of G: node labels, attributes and the
// edge set by label name. It is built from the generated dataset and
// advanced by replaying the same cycle templates the program receives, so
// the evaluator below can judge the program's outputs without calling any
// program code.
type mirror struct {
	labels []string
	attrs  []map[string]value
	edges  map[ekey]struct{}
}

type ekey struct {
	src, dst int32
	label    string
}

// value is an attribute value: an integer (ints and bools), a
// non-integral float, or a string.
type value struct {
	kind byte // 'i', 'f' (non-integral), 's'
	i    int64
	s    string
}

func intValue(v int64) value { return value{kind: 'i', i: v} }

func mirrorOf(g *graph.Graph) *mirror {
	m := &mirror{edges: make(map[ekey]struct{}, g.NumEdges())}
	syms := g.Symbols()
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		attrs := map[string]value{}
		g.Attrs(id, func(a graph.AttrID, gv graph.Value) {
			switch {
			case gv.Kind() == graph.KindString:
				s, _ := gv.AsString()
				attrs[syms.AttrName(a)] = value{kind: 's', s: s}
			default:
				if i, ok := gv.AsInt(); ok {
					attrs[syms.AttrName(a)] = intValue(i)
				} else {
					attrs[syms.AttrName(a)] = value{kind: 'f'}
				}
			}
		})
		m.labels = append(m.labels, g.LabelName(id))
		m.attrs = append(m.attrs, attrs)
		for _, h := range g.Out(id) {
			m.edges[ekey{int32(v), int32(h.To), syms.LabelName(h.Label)}] = struct{}{}
		}
	}
	return m
}

func (m *mirror) clone() *mirror {
	c := &mirror{
		labels: append([]string(nil), m.labels...),
		attrs:  make([]map[string]value, len(m.attrs)),
		edges:  make(map[ekey]struct{}, len(m.edges)),
	}
	for i, a := range m.attrs {
		c.attrs[i] = make(map[string]value, len(a))
		for k, v := range a {
			c.attrs[i][k] = v
		}
	}
	for k := range m.edges {
		c.edges[k] = struct{}{}
	}
	return c
}

func (m *mirror) addNode(label string, attrs map[string]value) {
	if attrs == nil {
		attrs = map[string]value{}
	}
	m.labels = append(m.labels, label)
	m.attrs = append(m.attrs, attrs)
}

// checkViolation confirms that (rule, match) is a violation of G: the
// match binds every pattern node to a node with the pattern's label, every
// pattern edge is an edge of G, every X literal holds and some Y literal
// fails. Arithmetic is exact (big.Rat); a missing attribute, a type
// mismatch or a division by zero makes the literal fail, the paper's
// satisfaction semantics.
func (m *mirror) checkViolation(r *core.NGD, match []int32) error {
	p := r.Pattern
	if len(match) != len(p.Nodes) {
		return fmt.Errorf("%s: match binds %d nodes, pattern has %d", r.Name, len(match), len(p.Nodes))
	}
	for i, n := range p.Nodes {
		v := match[i]
		if v < 0 || int(v) >= len(m.labels) {
			return fmt.Errorf("%s: %s bound to unknown node %d", r.Name, n.Var, v)
		}
		if n.Label != "_" && m.labels[v] != n.Label {
			return fmt.Errorf("%s: %s bound to node %d labelled %s, want %s", r.Name, n.Var, v, m.labels[v], n.Label)
		}
	}
	for _, e := range p.Edges {
		if _, ok := m.edges[ekey{match[e.Src], match[e.Dst], e.Label}]; !ok {
			return fmt.Errorf("%s: edge %d-%s->%d missing from G", r.Name, match[e.Src], e.Label, match[e.Dst])
		}
	}
	for _, l := range r.X {
		if !m.holds(p.Nodes, match, l) {
			return fmt.Errorf("%s: X literal %s fails", r.Name, l)
		}
	}
	for _, l := range r.Y {
		if !m.holds(p.Nodes, match, l) {
			return nil
		}
	}
	return fmt.Errorf("%s: every Y literal holds", r.Name)
}

// isViolation reports whether checkViolation accepts the pair.
func (m *mirror) isViolation(r *core.NGD, match []int32) bool {
	return m.checkViolation(r, match) == nil
}

type operand struct {
	num *big.Rat
	str string
	isS bool
}

func (m *mirror) holds(nodes []pattern.Node, match []int32, l core.Literal) bool {
	a, okA := m.eval(nodes, match, l.L)
	b, okB := m.eval(nodes, match, l.R)
	if !okA || !okB {
		return false
	}
	if a.isS || b.isS {
		if !a.isS || !b.isS {
			return false
		}
		switch l.Op {
		case expr.Eq:
			return a.str == b.str
		case expr.Ne:
			return a.str != b.str
		}
		return false
	}
	c := a.num.Cmp(b.num)
	switch l.Op {
	case expr.Eq:
		return c == 0
	case expr.Ne:
		return c != 0
	case expr.Lt:
		return c < 0
	case expr.Le:
		return c <= 0
	case expr.Gt:
		return c > 0
	case expr.Ge:
		return c >= 0
	}
	return false
}

func (m *mirror) eval(nodes []pattern.Node, match []int32, e *expr.Expr) (operand, bool) {
	num := func(x operand, ok bool) (*big.Rat, bool) {
		if !ok || x.isS {
			return nil, false
		}
		return x.num, true
	}
	switch e.Op {
	case expr.OpConst:
		return operand{num: new(big.Rat).SetInt64(e.Const)}, true
	case expr.OpStr:
		return operand{str: e.Str, isS: true}, true
	case expr.OpVar:
		for i, n := range nodes {
			if n.Var != e.Var {
				continue
			}
			v, ok := m.attrs[match[i]][e.Attr]
			switch {
			case !ok || v.kind == 'f':
				return operand{}, false
			case v.kind == 's':
				return operand{str: v.s, isS: true}, true
			}
			return operand{num: new(big.Rat).SetInt64(v.i)}, true
		}
		return operand{}, false
	case expr.OpNeg, expr.OpAbs:
		x, ok := num(m.eval(nodes, match, e.L))
		if !ok {
			return operand{}, false
		}
		if e.Op == expr.OpNeg || x.Sign() < 0 {
			x = new(big.Rat).Neg(x)
		}
		return operand{num: x}, true
	}
	x, okX := num(m.eval(nodes, match, e.L))
	y, okY := num(m.eval(nodes, match, e.R))
	if !okX || !okY {
		return operand{}, false
	}
	z := new(big.Rat)
	switch e.Op {
	case expr.OpAdd:
		z.Add(x, y)
	case expr.OpSub:
		z.Sub(x, y)
	case expr.OpMul:
		z.Mul(x, y)
	case expr.OpDiv:
		if y.Sign() == 0 {
			return operand{}, false
		}
		z.Quo(x, y)
	default:
		return operand{}, false
	}
	return operand{num: z}, true
}
