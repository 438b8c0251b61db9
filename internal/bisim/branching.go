package bisim

import (
	"math/bits"
	"slices"

	"repro/internal/lts"
	"repro/internal/rates"
)

// branching is the divergence-blind branching-bisimulation quotient of an
// LTS. Branching bisimilarity is contained in weak bisimilarity, so every
// state is weakly bisimilar to its quotient state: a weak verdict, a weak
// partition and a weak-modality formula computed on q carry over to the
// LTS unchanged.
type branching struct {
	// comp maps each state to its tau-SCC (condensation node), as
	// computed by tauSCCs.
	comp []int32
	// block maps each condensation node to its quotient state. Quotient
	// states are numbered by the smallest condensation node they contain.
	block []int32
	// q has one state per block and the lifted, deduplicated edges of its
	// members, without inert tau self-loops.
	q *lts.LTS
}

// stateOf returns the quotient state of LTS state st.
func (b *branching) stateOf(st int) int { return int(b.block[b.comp[st]]) }

// reduceBranching computes the branching quotient of l.
func reduceBranching(l *lts.LTS) *branching {
	comp, nc := tauSCCs(l)
	rowOff, edges := condense(l, comp, nc)
	block, nb := branchingPartition(rowOff, edges)

	var qe []cedge
	for _, e := range edges {
		src, dst := block[e.src], block[e.dst]
		if e.label == lts.TauIndex && src == dst {
			continue
		}
		qe = append(qe, cedge{src: src, label: e.label, dst: dst})
	}
	slices.SortFunc(qe, compareCedge)
	q := lts.NewShared(nb, l.Symbols())
	if l.NumStates > 0 {
		q.Initial = int(block[comp[l.Initial]])
	}
	for _, e := range dedupEdges(qe) {
		q.AddTransition(int(e.src), int(e.dst), int(e.label), rates.UntimedRate())
	}
	return &branching{comp: comp, block: block, q: q}
}

// branchingPartition runs signature refinement for branching bisimulation
// (Blom–Orzan) over a tau-acyclic condensation and returns the block of
// every node plus the number of blocks.
//
// Under partition π, a tau edge is inert when it stays inside its source's
// block. The signature of node c is the set of (label, π(dst)) pairs of
// its non-inert edges, united with the signatures of its inert tau
// successors; the new block of c is keyed by (π(c), signature). Tarjan
// numbers tau successors below their sources, so one ascending sweep sees
// every inert successor's signature before it is needed.
//
// Signatures are sorted, deduplicated uint64 (label<<32 | block) runs in
// one arena reused across rounds; blocks are found through a hash of the
// key with collision chains, so no per-node strings or maps are built.
// Block ids are assigned in first-appearance order of ascending node id.
func branchingPartition(rowOff []int32, edges []cedge) (block []int32, numBlocks int) {
	nc := len(rowOff) - 1
	cur := make([]int32, nc)
	next := make([]int32, nc)
	sigOff := make([]int32, nc+1)
	var arena []uint64
	heads := make(map[uint64]int32)
	// chain links blocks whose keys share a hash; rep is the node that
	// opened each block this round.
	var chain, rep []int32
	numBlocks = 1
	for {
		arena = arena[:0]
		clear(heads)
		chain, rep = chain[:0], rep[:0]
		for c := range nc {
			start := len(arena)
			for _, e := range edges[rowOff[c]:rowOff[c+1]] {
				if e.label == lts.TauIndex && cur[e.dst] == cur[c] {
					arena = append(arena, arena[sigOff[e.dst]:sigOff[e.dst+1]]...)
				} else {
					arena = append(arena, uint64(e.label)<<32|uint64(cur[e.dst]))
				}
			}
			sig := arena[start:]
			slices.Sort(sig)
			sig = slices.Compact(sig)
			arena = arena[:start+len(sig)]
			sigOff[c+1] = int32(len(arena))

			h := sigHash(cur[c], sig)
			head, ok := heads[h]
			if !ok {
				head = -1
			}
			id := int32(-1)
			for b := head; b >= 0; b = chain[b] {
				r := rep[b]
				if cur[r] == cur[c] && slices.Equal(arena[sigOff[r]:sigOff[r+1]], sig) {
					id = b
					break
				}
			}
			if id < 0 {
				id = int32(len(rep))
				rep = append(rep, int32(c))
				chain = append(chain, head)
				heads[h] = id
			}
			next[c] = id
		}
		if len(rep) == numBlocks {
			return next, numBlocks
		}
		numBlocks = len(rep)
		cur, next = next, cur
	}
}

// sigHash mixes a previous block id and a signature into a table key.
func sigHash(prev int32, sig []uint64) uint64 {
	const k1, k2 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	h := uint64(prev)*k1 ^ uint64(len(sig))
	for _, x := range sig {
		h = bits.RotateLeft64(h^x*k1, 29) * k2
	}
	return h
}
