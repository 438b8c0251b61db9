// Package bisim implements strong and weak (observational) bisimulation
// equivalence checking over explicit labelled transition systems, with
// generation of distinguishing Hennessy–Milner formulas when two systems
// are not equivalent.
//
// Weak bisimilarity is decided in two steps. First the system is reduced
// to its divergence-blind branching-bisimulation quotient (Groote–
// Vaandrager), computed by signature refinement over the tau-SCC
// condensation without saturating anything (branching.go). Branching
// bisimilarity is contained in weak bisimilarity, so every state is
// weakly bisimilar to its quotient state. Then weak bisimilarity is
// decided on the quotient as strong bisimilarity of the saturated system
// (tau*·a·tau* weak moves, reflexive tau* moves), following Milner.
// On the paper's streaming check the quotient has 33 states where the
// union has 44928.
//
// Both partitions are computed by signature refinement: states are
// repeatedly split by the set of (label, target block) pairs they can
// reach, with the previous block included in the key so that each round
// refines the last. The refinement history of the final step supports
// Cleaveland-style construction of a minimal-depth distinguishing formula.
//
// The saturated successor structure is stored in grouped CSR form — per
// node, label-sorted groups of deduplicated successor sets over one shared
// destination arena — and indexes the pipeline's interned labels directly,
// so refinement rounds run without per-state maps.
package bisim

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hml"
	"repro/internal/lts"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// Relation selects the equivalence to check.
type Relation int

// Supported equivalences.
const (
	// Strong requires matching single transitions.
	Strong Relation = iota + 1
	// Weak abstracts from tau moves (observational equivalence).
	Weak
)

// String returns the relation name.
func (r Relation) String() string {
	switch r {
	case Strong:
		return "strong"
	case Weak:
		return "weak"
	default:
		return "unknown"
	}
}

// sat is the (possibly saturated) successor structure the refinement
// operates on: for each node, label-sorted groups of sorted, deduplicated
// successor sets. Label indices refer to the shared symbol table. For
// Weak, the tau group holds the reflexive-transitive closure.
//
// For the weak relation the structure is built over the *condensation* of
// the tau graph: mutually tau-reachable states are weakly bisimilar, so
// each tau strongly connected component becomes a single node. stateMap
// maps original LTS states to sat nodes (the identity for Strong).
type sat struct {
	n        int
	syms     *statespace.Symbols
	stateMap []int

	// Grouped CSR: node st owns groups grpStart[st]..grpStart[st+1]; group
	// g carries label grpLabel[g] (ascending within a node) and successor
	// set dsts[dstOff[g]:dstOff[g+1]] (sorted, deduplicated).
	grpStart []int32
	grpLabel []int32
	dstOff   []int32
	dsts     []int32
}

// groups returns the group index range of node st.
func (s *sat) groups(st int) (lo, hi int32) { return s.grpStart[st], s.grpStart[st+1] }

// groupDsts returns the successor set of group g.
func (s *sat) groupDsts(g int32) []int32 { return s.dsts[s.dstOff[g]:s.dstOff[g+1]] }

// find returns the successor set of (st, label), or nil.
func (s *sat) find(st int, label int32) []int32 {
	lo, hi := s.grpStart[st], s.grpStart[st+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if s.grpLabel[mid] < label {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.grpStart[st+1] && s.grpLabel[lo] == label {
		return s.groupDsts(lo)
	}
	return nil
}

// satBuilder accumulates the grouped CSR arrays of a sat.
type satBuilder struct {
	s *sat
}

func newSatBuilder(n int, syms *statespace.Symbols) *satBuilder {
	return &satBuilder{s: &sat{
		n:        n,
		syms:     syms,
		grpStart: make([]int32, 1, n+1),
		dstOff:   make([]int32, 1, n+1),
	}}
}

// group appends one (label, dsts) group to the node currently being built;
// dsts must already be sorted and deduplicated.
func (b *satBuilder) group(label int32, dsts []int32) {
	b.s.grpLabel = append(b.s.grpLabel, label)
	b.s.dsts = append(b.s.dsts, dsts...)
	b.s.dstOff = append(b.s.dstOff, int32(len(b.s.dsts)))
}

// endNode closes the current node's group list.
func (b *satBuilder) endNode() {
	b.s.grpStart = append(b.s.grpStart, int32(len(b.s.grpLabel)))
}

// pair is a (label, dst) scratch entry used while grouping a node's edges.
type pair struct{ label, dst int32 }

func sortPairs(ps []pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].label != ps[j].label {
			return ps[i].label < ps[j].label
		}
		return ps[i].dst < ps[j].dst
	})
}

// tauSCCs computes the strongly connected components of the tau-only
// graph (iterative Tarjan) and returns the component id of every state
// plus the number of components. Component ids are assigned in reverse
// topological order of the condensation (sources last).
func tauSCCs(l *lts.LTS) (comp []int32, numComp int) {
	n := l.NumStates
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp = make([]int32, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int32
	counter := int32(0)
	type frame struct{ v, ei int32 }
	for start := 0; start < n; start++ {
		if index[start] >= 0 {
			continue
		}
		frames := []frame{{v: int32(start)}}
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, int32(start))
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			out := l.Out(int(f.v))
			advanced := false
			for int(f.ei) < out.Len() {
				k := f.ei
				f.ei++
				if out.Label[k] != lts.TauIndex {
					continue
				}
				w := out.Dst[k]
				if index[w] < 0 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(numComp)
					if w == v {
						break
					}
				}
				numComp++
			}
		}
	}
	return comp, numComp
}

// saturate builds the successor structure for the chosen relation.
func saturate(l *lts.LTS, rel Relation) *sat {
	if rel == Strong {
		n := l.NumStates
		b := newSatBuilder(n, l.Symbols())
		b.s.stateMap = make([]int, n)
		var buf []pair
		for st := 0; st < n; st++ {
			b.s.stateMap[st] = st
			sp := l.Out(st)
			buf = buf[:0]
			for k := 0; k < sp.Len(); k++ {
				buf = append(buf, pair{label: sp.Label[k], dst: sp.Dst[k]})
			}
			sortPairs(buf)
			emitGroups(b, buf)
			b.endNode()
		}
		return b.s
	}

	// Weak: collapse tau-SCCs first — mutually tau-reachable states are
	// weakly bisimilar, and condensation makes the tau graph acyclic,
	// which keeps the saturated structure tractable.
	comp, nc := tauSCCs(l)
	rowOff, edges := condense(l, comp, nc)

	// Reflexive-transitive tau closure over the condensation, stored in a
	// single slab. Tarjan assigns component ids in reverse topological
	// order, so successors of c always have ids < c: a single ascending
	// sweep suffices, and the slab only ever references finished entries.
	cloOff := make([]int32, nc+1)
	clo := make([]int32, 0, nc)
	mark := make([]int32, nc)
	for i := range mark {
		mark[i] = -1
	}
	for c := int32(0); c < int32(nc); c++ {
		start := len(clo)
		clo = append(clo, c)
		mark[c] = c
		for i := rowOff[c]; i < rowOff[c+1]; i++ {
			e := edges[i]
			if e.label != lts.TauIndex {
				continue
			}
			for _, x := range clo[cloOff[e.dst]:cloOff[e.dst+1]] {
				if mark[x] != c {
					mark[x] = c
					clo = append(clo, x)
				}
			}
		}
		seg := clo[start:]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		cloOff[c+1] = int32(len(clo))
	}
	closure := func(c int32) []int32 { return clo[cloOff[c]:cloOff[c+1]] }

	b := newSatBuilder(nc, l.Symbols())
	b.s.stateMap = make([]int, l.NumStates)
	for st := range b.s.stateMap {
		b.s.stateMap[st] = int(comp[st])
	}

	// Saturation sweep: succ(c, a) = ∪ closure(d) over visible condensed
	// edges (u, a, d) with u in closure(c); the tau group of c is its
	// closure. Group sets are deduplicated with generation stamps.
	gen := int32(-1)
	stamp := make([]int32, nc)
	for i := range stamp {
		stamp[i] = -1
	}
	var buf []pair
	var setBuf []int32
	for c := int32(0); c < int32(nc); c++ {
		b.group(lts.TauIndex, closure(c))
		buf = buf[:0]
		for _, u := range closure(c) {
			for i := rowOff[u]; i < rowOff[u+1]; i++ {
				e := edges[i]
				if e.label == lts.TauIndex {
					continue
				}
				buf = append(buf, pair{label: e.label, dst: e.dst})
			}
		}
		sortPairs(buf)
		for i := 0; i < len(buf); {
			j := i
			gen++
			setBuf = setBuf[:0]
			for j < len(buf) && buf[j].label == buf[i].label {
				for _, v := range closure(buf[j].dst) {
					if stamp[v] != gen {
						stamp[v] = gen
						setBuf = append(setBuf, v)
					}
				}
				j++
			}
			sort.Slice(setBuf, func(x, y int) bool { return setBuf[x] < setBuf[y] })
			b.group(buf[i].label, setBuf)
			i = j
		}
		b.endNode()
	}
	return b.s
}

// emitGroups converts a sorted (label, dst) pair list into deduplicated
// groups on the builder.
func emitGroups(b *satBuilder, buf []pair) {
	for i := 0; i < len(buf); {
		j := i
		last := int32(-1)
		for j < len(buf) && buf[j].label == buf[i].label {
			if buf[j].dst != last {
				b.s.dsts = append(b.s.dsts, buf[j].dst)
				last = buf[j].dst
			}
			j++
		}
		b.s.grpLabel = append(b.s.grpLabel, buf[i].label)
		b.s.dstOff = append(b.s.dstOff, int32(len(b.s.dsts)))
		i = j
	}
}

// dedupEdges removes duplicates from a sorted condensed edge list.
func dedupEdges[E comparable](edges []E) []E {
	out := edges[:0]
	var last E
	for i, e := range edges {
		if i == 0 || e != last {
			out = append(out, e)
			last = e
		}
	}
	return out
}

// cedge is one edge of the tau-SCC condensation.
type cedge struct{ src, label, dst int32 }

// compareCedge orders condensed edges by (src, label, dst).
func compareCedge(a, b cedge) int {
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.label, b.label); c != 0 {
		return c
	}
	return cmp.Compare(a.dst, b.dst)
}

// condense lifts the edges of l onto its tau-SCC condensation (comp, nc
// from tauSCCs): sorted by (src, label, dst), deduplicated, without the
// tau edges inside a component. rowOff indexes the edges of each node.
func condense(l *lts.LTS, comp []int32, nc int) (rowOff []int32, edges []cedge) {
	for st := 0; st < l.NumStates; st++ {
		sp := l.Out(st)
		cs := comp[st]
		for k := 0; k < sp.Len(); k++ {
			cd := comp[sp.Dst[k]]
			if sp.Label[k] == lts.TauIndex && cs == cd {
				continue
			}
			edges = append(edges, cedge{src: cs, label: sp.Label[k], dst: cd})
		}
	}
	slices.SortFunc(edges, compareCedge)
	edges = dedupEdges(edges)
	rowOff = make([]int32, nc+1)
	for _, e := range edges {
		rowOff[e.src+1]++
	}
	for c := 1; c <= nc; c++ {
		rowOff[c] += rowOff[c-1]
	}
	return rowOff, edges
}

// refineResult carries the partition and its refinement history.
type refineResult struct {
	s *sat
	// history[k][state] is the block of state after k refinement rounds;
	// history[0] is the initial one-block partition.
	history [][]int
}

// blocks returns the final partition.
func (r *refineResult) blocks() []int { return r.history[len(r.history)-1] }

// refine runs signature refinement to a fixed point. The grouped CSR
// structure is label-sorted per node, so a round is a single sweep over
// the groups; the block-dedup stamps and the two partition buffers are
// allocated once and reused across rounds — only the signature strings
// and the history snapshots survive a round.
func refine(s *sat) *refineResult {
	n := s.n
	cur := make([]int, n) // all states in block 0
	next := make([]int, n)
	res := &refineResult{s: s}
	res.history = append(res.history, append([]int(nil), cur...))

	// mark stamps the blocks already collected for the current
	// (state, label) pair — a generation counter instead of a per-pair
	// map (block ids are < n, so a flat slice suffices).
	mark := make([]int, n)
	gen := 0
	blockBuf := make([]int, 0, 16)
	sigs := make(map[string]int, n)
	var sb strings.Builder

	numBlocks := 1
	for {
		clear(sigs)
		for st := 0; st < n; st++ {
			sb.Reset()
			// Previous block first, so each round refines the last.
			sb.WriteString(strconv.Itoa(cur[st]))
			glo, ghi := s.groups(st)
			for g := glo; g < ghi; g++ {
				gen++
				blockBuf = blockBuf[:0]
				for _, d := range s.groupDsts(g) {
					b := cur[d]
					if mark[b] != gen {
						mark[b] = gen
						blockBuf = append(blockBuf, b)
					}
				}
				sort.Ints(blockBuf)
				sb.WriteByte('|')
				sb.WriteString(strconv.Itoa(int(s.grpLabel[g])))
				sb.WriteByte(':')
				for _, b := range blockBuf {
					sb.WriteString(strconv.Itoa(b))
					sb.WriteByte(',')
				}
			}
			key := sb.String()
			id, ok := sigs[key]
			if !ok {
				id = len(sigs)
				sigs[key] = id
			}
			next[st] = id
		}
		res.history = append(res.history, append([]int(nil), next...))
		if len(sigs) == numBlocks {
			return res
		}
		numBlocks = len(sigs)
		cur, next = next, cur
	}
}

// Partition computes the bisimulation partition of a single LTS: the block
// identifier of each state. Two states are equivalent iff they share a
// block. Blocks are numbered in order of their smallest tau-SCC id (for
// Strong, their smallest state).
func Partition(l *lts.LTS, rel Relation) []int {
	if rel == Strong {
		return refine(saturate(l, Strong)).blocks()
	}
	br := reduceBranching(l)
	s := saturate(br.q, Weak)
	blocks := refine(s).blocks()
	// Renumber the weak blocks of the quotient by first appearance over
	// ascending condensation node, the order refine assigns on the
	// unreduced condensation.
	renum := make([]int, len(blocks))
	for i := range renum {
		renum[i] = -1
	}
	ids := make([]int, len(br.block))
	next := 0
	for c, qs := range br.block {
		b := blocks[s.stateMap[qs]]
		if renum[b] < 0 {
			renum[b] = next
			next++
		}
		ids[c] = renum[b]
	}
	out := make([]int, l.NumStates)
	for st := range out {
		out[st] = ids[br.comp[st]]
	}
	return out
}

// Verdict is the outcome of an equivalence check.
type Verdict struct {
	// Equivalent is true when the initial states are bisimilar.
	Equivalent bool
	// Formula distinguishes the systems when they are not equivalent: it
	// holds in the initial state of the first and fails in the second.
	Formula hml.Formula
	// States is the number of states the partition refinement ran on:
	// the disjoint union of the two systems for Strong, its
	// branching-bisimulation quotient for Weak.
	States int
}

// Compare checks whether the initial states of two LTSs are bisimilar
// under the chosen relation. Labels are matched by name.
//
// Weak is decided on the branching-bisimulation quotient of the union.
// Each state is weakly bisimilar to its quotient state, so the verdict is
// that of the unreduced union, and a weak-modality formula that separates
// the quotient states also separates the original initial states.
func Compare(l1, l2 *lts.LTS, rel Relation) Verdict {
	u, init1, init2 := union(l1, l2)
	if rel == Weak {
		br := reduceBranching(u)
		u, init1, init2 = br.q, br.stateOf(init1), br.stateOf(init2)
	}
	s := saturate(u, rel)
	res := refine(s)
	blocks := res.blocks()
	v := Verdict{States: u.NumStates}
	n1, n2 := s.stateMap[init1], s.stateMap[init2]
	if blocks[n1] == blocks[n2] {
		v.Equivalent = true
		return v
	}
	g := &formulaGen{res: res, rel: rel}
	v.Formula = g.dist(n1, n2)
	return v
}

// Equivalent checks whether the initial states of two LTSs are bisimilar
// under the chosen relation. Labels are matched by name. When the systems
// are not equivalent, a distinguishing formula is returned: it holds in
// the initial state of l1 and fails in the initial state of l2.
func Equivalent(l1, l2 *lts.LTS, rel Relation) (bool, hml.Formula) {
	v := Compare(l1, l2, rel)
	return v.Equivalent, v.Formula
}

// union builds the disjoint union of two LTSs. Systems from the same
// pipeline share a symbol table, in which case label indices are copied
// verbatim; otherwise labels are matched by name into a fresh table.
func union(l1, l2 *lts.LTS) (u *lts.LTS, init1, init2 int) {
	shared := l1.Symbols() == l2.Symbols()
	if shared {
		u = lts.NewShared(l1.NumStates+l2.NumStates, l1.Symbols())
	} else {
		u = lts.New(l1.NumStates + l2.NumStates)
	}
	u.Initial = l1.Initial
	copyInto := func(l *lts.LTS, off int) {
		l.Edges(func(src, dst, label int, r rates.Rate) {
			li := label
			if !shared && label != lts.TauIndex {
				li = u.LabelIndex(l.LabelName(label))
			}
			u.AddTransition(src+off, dst+off, li, r)
		})
	}
	copyInto(l1, 0)
	copyInto(l2, l1.NumStates)
	return u, l1.Initial, l2.Initial + l1.NumStates
}
