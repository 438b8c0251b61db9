package repro

import (
	"repro/internal/bisim"
	"repro/internal/lts"
)

// Kept apart from bench_test.go because bisim.Compare does not exist at
// older refs that scripts/bench_compare.sh -W times bench_test.go against.
func init() {
	weakCheckStates = func(l1, l2 *lts.LTS) int {
		return bisim.Compare(l1, l2, bisim.Weak).States
	}
}
