package noninterference

import (
	"strings"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/elab"
	"repro/internal/hml"
	"repro/internal/lts"
	"repro/internal/rates"
)

// interferingSystem: a worker serving a client, plus a "killer" (high
// component) that can silently disable the worker forever. With the killer
// hidden the client can get stuck after a request; with the killer
// prevented it cannot: classic interference.
func interferingSystem(t *testing.T) *elab.Model {
	t.Helper()
	worker := aemilia.NewElemType("Worker_Type",
		[]string{"req", "kill"}, []string{"res"},
		aemilia.NewBehavior("Idle", nil,
			aemilia.Ch(
				aemilia.Pre("req", rates.UntimedRate(),
					aemilia.Pre("res", rates.UntimedRate(), aemilia.Invoke("Idle"))),
				aemilia.Pre("kill", rates.UntimedRate(), aemilia.Invoke("Dead")),
			)),
		aemilia.NewBehavior("Dead", nil,
			aemilia.Pre("idle_forever", rates.UntimedRate(), aemilia.Invoke("Dead"))),
	)
	client := aemilia.NewElemType("Client_Type",
		[]string{"res"}, []string{"req"},
		aemilia.NewBehavior("C", nil,
			aemilia.Pre("req", rates.UntimedRate(),
				aemilia.Pre("res", rates.UntimedRate(), aemilia.Invoke("C")))))
	killer := aemilia.NewElemType("Killer_Type", nil, []string{"kill"},
		aemilia.NewBehavior("K", nil,
			aemilia.Pre("kill", rates.UntimedRate(), aemilia.Invoke("K"))))
	a := aemilia.NewArchiType("Interfering",
		[]*aemilia.ElemType{worker, client, killer},
		[]*aemilia.Instance{
			aemilia.NewInstance("W", "Worker_Type"),
			aemilia.NewInstance("C", "Client_Type"),
			aemilia.NewInstance("H", "Killer_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("C", "req", "W", "req"),
			aemilia.Attach("W", "res", "C", "res"),
			aemilia.Attach("H", "kill", "W", "kill"),
		})
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// transparentSystem: the high component can only toggle an internal lamp
// that never affects the worker-client interaction.
func transparentSystem(t *testing.T) *elab.Model {
	t.Helper()
	worker := aemilia.NewElemType("Worker_Type",
		[]string{"req", "lamp"}, []string{"res"},
		aemilia.NewBehavior("Idle", nil,
			aemilia.Ch(
				aemilia.Pre("req", rates.UntimedRate(),
					aemilia.Pre("res", rates.UntimedRate(), aemilia.Invoke("Idle"))),
				aemilia.Pre("lamp", rates.UntimedRate(), aemilia.Invoke("Idle")),
			)))
	client := aemilia.NewElemType("Client_Type",
		[]string{"res"}, []string{"req"},
		aemilia.NewBehavior("C", nil,
			aemilia.Pre("req", rates.UntimedRate(),
				aemilia.Pre("res", rates.UntimedRate(), aemilia.Invoke("C")))))
	high := aemilia.NewElemType("High_Type", nil, []string{"lamp"},
		aemilia.NewBehavior("H", nil,
			aemilia.Pre("lamp", rates.UntimedRate(), aemilia.Invoke("H"))))
	a := aemilia.NewArchiType("Transparent",
		[]*aemilia.ElemType{worker, client, high},
		[]*aemilia.Instance{
			aemilia.NewInstance("W", "Worker_Type"),
			aemilia.NewInstance("C", "Client_Type"),
			aemilia.NewInstance("H", "High_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("C", "req", "W", "req"),
			aemilia.Attach("W", "res", "C", "res"),
			aemilia.Attach("H", "lamp", "W", "lamp"),
		})
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInterferenceDetected(t *testing.T) {
	res, err := CheckModel(interferingSystem(t), "H", "C", lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transparent {
		t.Fatal("killer must interfere")
	}
	if res.Formula == nil || res.FormulaText == "" {
		t.Fatal("missing diagnostic formula")
	}
	if !strings.Contains(res.FormulaText, "EXISTS_WEAK_TRANS") {
		t.Errorf("formula not in TwoTowers syntax: %s", res.FormulaText)
	}
	// The formula speaks only about observable (client) labels.
	if strings.Contains(res.FormulaText, "H.kill") {
		t.Errorf("formula mentions hidden high label: %s", res.FormulaText)
	}
	if res.HiddenStates == 0 || res.RestrictedStates == 0 {
		t.Error("state counts not reported")
	}
	if res.QuotientStates == 0 || res.QuotientStates > res.HiddenStates+res.RestrictedStates {
		t.Errorf("quotient states = %d, outside 1..%d",
			res.QuotientStates, res.HiddenStates+res.RestrictedStates)
	}
}

func TestInterferenceFormulaIsValidWitness(t *testing.T) {
	m := interferingSystem(t)
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	high := lts.LabelMatcherByInstance("H")
	low := lts.LabelMatcherByInstance("C")
	res, err := Check(l, Spec{High: high, Low: low})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transparent {
		t.Fatal("expected interference")
	}
	notLow := func(s string) bool { return !low(s) }
	hidden := lts.Hide(l, notLow)
	restricted := lts.Hide(lts.Restrict(l, high), notLow)
	if !hml.NewChecker(hidden).Sat(hidden.Initial, res.Formula) {
		t.Errorf("formula should hold in the hidden variant: %s", res.FormulaText)
	}
	if hml.NewChecker(restricted).Sat(restricted.Initial, res.Formula) {
		t.Errorf("formula should fail in the restricted variant: %s", res.FormulaText)
	}
}

func TestTransparentSystemPasses(t *testing.T) {
	res, err := CheckModel(transparentSystem(t), "H", "C", lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Transparent {
		t.Fatalf("lamp toggling must be transparent; formula: %s", res.FormulaText)
	}
	if res.Formula != nil {
		t.Error("transparent result should carry no formula")
	}
	// Both variants reduce to the client's req/res cycle: two quotient
	// states for the whole union.
	if res.QuotientStates != 2 {
		t.Errorf("quotient states = %d, want 2 (hidden %d, restricted %d)",
			res.QuotientStates, res.HiddenStates, res.RestrictedStates)
	}
}

func TestDefaultLowIsComplementOfHigh(t *testing.T) {
	// With Low nil, every non-high action stays observable (SNNI). The
	// lamp sync involves both W and H; as a high label it is hidden in one
	// variant and removed in the other, and the rest of the system is
	// identical: still transparent.
	m := transparentSystem(t)
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(l, Spec{High: lts.LabelMatcherByInstance("H")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Transparent {
		t.Fatalf("SNNI variant should pass: %s", res.FormulaText)
	}
}

func TestCheckRequiresHigh(t *testing.T) {
	m := transparentSystem(t)
	l, err := lts.Generate(m, lts.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(l, Spec{}); err == nil {
		t.Fatal("missing High matcher should error")
	}
}

func TestCheckModelUnknownInstance(t *testing.T) {
	if _, err := CheckModel(transparentSystem(t), "NOPE", "C", lts.GenerateOptions{}); err == nil {
		t.Fatal("unknown high instance should error")
	}
	if _, err := CheckModel(transparentSystem(t), "H", "NOPE", lts.GenerateOptions{}); err == nil {
		t.Fatal("unknown low instance should error")
	}
}
