package bisim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hml"
	"repro/internal/lts"
	"repro/internal/rates"
)

// unreducedWeak decides weak bisimilarity of the initial states on the
// unreduced union: saturation and refinement without the branching
// quotient.
func unreducedWeak(l1, l2 *lts.LTS) bool {
	u, init1, init2 := union(l1, l2)
	s := saturate(u, Weak)
	blocks := refine(s).blocks()
	return blocks[s.stateMap[init1]] == blocks[s.stateMap[init2]]
}

// unreducedWeakPartition is the weak partition of l without the branching
// quotient.
func unreducedWeakPartition(l *lts.LTS) []int {
	s := saturate(l, Weak)
	blocks := refine(s).blocks()
	out := make([]int, l.NumStates)
	for st := range out {
		out[st] = blocks[s.stateMap[st]]
	}
	return out
}

// edgeList returns the transitions of l as (src, label, dst) triples.
func edgeList(l *lts.LTS) [][3]int {
	var es [][3]int
	l.Edges(func(src, dst, label int, _ rates.Rate) {
		es = append(es, [3]int{src, label, dst})
	})
	return es
}

// rebuild builds an LTS over l's symbol table from a transition list.
func rebuild(l *lts.LTS, n, initial int, es [][3]int) *lts.LTS {
	out := lts.NewShared(n, l.Symbols())
	out.Initial = initial
	for _, e := range es {
		out.AddTransition(e[0], e[2], e[1], rates.UntimedRate())
	}
	return out
}

// mutate returns l with one transition dropped, added or relabelled: the
// result may or may not stay weakly bisimilar.
func mutate(r *rand.Rand, l *lts.LTS) *lts.LTS {
	es := edgeList(l)
	n := l.NumStates
	label := func() int {
		if r.Intn(3) == 0 {
			return lts.TauIndex
		}
		return l.LabelIndex([]string{"a", "b", "c"}[r.Intn(3)])
	}
	switch op := r.Intn(3); {
	case op == 0 && len(es) > 0:
		i := r.Intn(len(es))
		es = append(es[:i], es[i+1:]...)
	case op == 1 && len(es) > 0:
		es[r.Intn(len(es))][1] = label()
	default:
		es = append(es, [3]int{r.Intn(n), label(), r.Intn(n)})
	}
	return rebuild(l, n, l.Initial, es)
}

// shortcut returns l with its states permuted and a few weak moves added
// as direct transitions: for a path s -tau*-> -a-> -tau*-> t it adds
// s -a-> t. The saturated system is unchanged, so the result is weakly
// bisimilar to l, but in general not branching bisimilar (Milner's third
// tau-law is one instance).
func shortcut(r *rand.Rand, l *lts.LTS) *lts.LTS {
	n := l.NumStates
	es := edgeList(l)
	out := make([][]int, n)
	for i, e := range es {
		out[e[0]] = append(out[e[0]], i)
	}
	tauStep := func(s int) int {
		var cands []int
		for _, i := range out[s] {
			if es[i][1] == lts.TauIndex {
				cands = append(cands, es[i][2])
			}
		}
		if len(cands) == 0 || r.Intn(3) == 0 {
			return -1
		}
		return cands[r.Intn(len(cands))]
	}
	tauWalk := func(s int) int {
		for t := tauStep(s); t >= 0; t = tauStep(s) {
			s = t
		}
		return s
	}
	for range 1 + r.Intn(4) {
		src := r.Intn(n)
		mid := tauWalk(src)
		if len(out[mid]) == 0 {
			continue
		}
		e := es[out[mid][r.Intn(len(out[mid]))]]
		es = append(es, [3]int{src, e[1], tauWalk(e[2])})
	}
	perm := r.Perm(n)
	for i := range es {
		es[i][0], es[i][2] = perm[es[i][0]], perm[es[i][2]]
	}
	return rebuild(l, n, perm[l.Initial], es)
}

// Property: over random systems with tau cycles, tau self-loops and
// deadlocks at several tau densities, the verdict on the branching
// quotient equals the unreduced verdict, and every formula distinguishes.
func TestPropertyWeakQuotientMatchesUnreduced(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var equiv, inequiv, notBranching int
	for trial := 0; trial < 320; trial++ {
		tau := []float64{0.1, 0.3, 0.6, 0.9}[trial%4]
		n := 2 + r.Intn(199)
		l1 := randomLTS(r, n, tau)
		var l2 *lts.LTS
		switch trial % 3 {
		case 0:
			l2 = randomLTS(r, 2+r.Intn(199), tau)
		case 1:
			l2 = mutate(r, l1)
		default:
			l2 = shortcut(r, l1)
		}
		v := Compare(l1, l2, Weak)
		if want := unreducedWeak(l1, l2); v.Equivalent != want {
			t.Fatalf("trial %d (n=%d, tau=%v): quotient verdict %v, unreduced %v",
				trial, n, tau, v.Equivalent, want)
		}
		if v.Equivalent {
			equiv++
			u, init1, init2 := union(l1, l2)
			if br := reduceBranching(u); br.stateOf(init1) != br.stateOf(init2) {
				notBranching++
			}
			continue
		}
		inequiv++
		checkDistinguishes(t, l1, l2, v.Formula)
	}
	t.Logf("%d equivalent (%d of them not branching bisimilar), %d inequivalent",
		equiv, notBranching, inequiv)
	if equiv == 0 || inequiv == 0 || notBranching == 0 {
		t.Fatal("property vacuous: a verdict class was never generated")
	}
}

// Property: Partition(Weak) returns exactly the block numbering of the
// unreduced saturate+refine partition.
func TestPropertyWeakPartitionMatchesUnreduced(t *testing.T) {
	if got := Partition(lts.New(0), Weak); len(got) != 0 {
		t.Fatalf("empty LTS: partition %v", got)
	}
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		tau := []float64{0.1, 0.3, 0.6, 0.9}[trial%4]
		l := randomLTS(r, 2+r.Intn(199), tau)
		if trial%2 == 1 {
			l = shortcut(r, l)
		}
		got, want := Partition(l, Weak), unreducedWeakPartition(l)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: partition %v, unreduced %v", trial, got, want)
		}
	}
}

// Milner's third tau-law, a.(tau.b + c) + a.b ≈ a.(tau.b + c): weakly
// bisimilar but not branching bisimilar, so the weak verdict must not
// stop at the branching quotient.
func TestWeakNotBranchingThirdTauLaw(t *testing.T) {
	l1 := build(7, 0, [][3]any{
		{0, "a", 1}, {1, "tau", 2}, {2, "b", 3}, {1, "c", 4},
		{0, "a", 5}, {5, "b", 6},
	})
	l2 := build(5, 0, [][3]any{
		{0, "a", 1}, {1, "tau", 2}, {2, "b", 3}, {1, "c", 4},
	})
	u, init1, init2 := union(l1, l2)
	if br := reduceBranching(u); br.stateOf(init1) == br.stateOf(init2) {
		t.Fatal("the branching quotient merged a branching-inequivalent pair")
	}
	if ok, f := Equivalent(l1, l2, Weak); !ok {
		t.Fatalf("third tau-law pair not weakly bisimilar: %s", hml.Format(f))
	}
	if ok, f := Equivalent(l2, l1, Weak); !ok {
		t.Fatalf("third tau-law pair not weakly bisimilar (swapped): %s", hml.Format(f))
	}
}

// The reported state count is the quotient's for Weak and the union's
// for Strong.
func TestCompareStates(t *testing.T) {
	// a.tau.b and a.b: the quotient of their 7-state union has three
	// states (before a, before b, done).
	l1 := build(4, 0, [][3]any{{0, "a", 1}, {1, "tau", 2}, {2, "b", 3}})
	l2 := build(3, 0, [][3]any{{0, "a", 1}, {1, "b", 2}})
	if v := Compare(l1, l2, Weak); !v.Equivalent || v.States != 3 {
		t.Errorf("weak: equivalent=%v states=%d, want true and 3", v.Equivalent, v.States)
	}
	if v := Compare(l1, l2, Strong); v.Equivalent || v.States != 7 {
		t.Errorf("strong: equivalent=%v states=%d, want false and 7", v.Equivalent, v.States)
	}
}
