package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// solveTolerance is the relative tolerance the goldens pin Markovian
// measures to; it also bounds full against minimized composition.
const solveTolerance = 1e-6

// references holds one workload's reference outputs, one text per
// operation, as the program printed them when the benchmark was defined.
// General outputs depend on the seed: the texts are the paper seed's,
// and digests holds the SHA-256 of each operation's output at a few more
// seeds.
type references struct {
	text    map[string]string
	digests map[uint64]map[string]string // seed -> op -> hex digest
}

func refDir(root, workload string) string {
	return filepath.Join(root, "perfbench", "ref", workload)
}

func loadReferences(root, workload string) (*references, error) {
	refs := &references{text: make(map[string]string), digests: make(map[uint64]map[string]string)}
	for _, o := range workloads[workload] {
		buf, err := os.ReadFile(filepath.Join(refDir(root, workload), o.name+".txt"))
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		refs.text[o.name] = string(buf)
	}
	if workload != "general" {
		return refs, nil
	}
	f, err := os.Open(filepath.Join(refDir(root, workload), "digests.txt"))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			return nil, fmt.Errorf("reference: malformed digest line %q", sc.Text())
		}
		seed, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		if refs.digests[seed] == nil {
			refs.digests[seed] = make(map[string]string)
		}
		refs.digests[seed][fields[1]] = fields[2]
	}
	return refs, sc.Err()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// check compares one operation's output with its reference. outputs holds
// the outputs of the operations that ran before it in the same pass.
func (refs *references) check(workload, opName string, seed uint64, got string, outputs map[string]string) error {
	want := refs.text[opName]
	switch workload {
	case "cold_solve":
		if err := compareSolve(got, want, true); err != nil {
			return fmt.Errorf("against reference: %w", err)
		}
		if full, ok := strings.CutSuffix(opName, "_minimize"); ok {
			if err := compareSolve(got, outputs[full+"_full"], false); err != nil {
				return fmt.Errorf("against full composition: %w", err)
			}
		}
		return nil
	case "general":
		if seed == 0 {
			seed = paperSeed
		}
		if seed == paperSeed {
			return exact(got, want)
		}
		if d, ok := refs.digests[seed][opName]; ok {
			if digest(got) != d {
				return fmt.Errorf("output digest %s, reference %s", digest(got), d)
			}
			return nil
		}
		if err := compareGeneralShape(opName, got, want); err != nil {
			return err
		}
		return checkGeneralConsistency(opName, got, outputs)
	default:
		return exact(got, want)
	}
}

func exact(got, want string) error {
	if got == want {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("line %d: %q, reference %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("%d lines, reference %d", len(gl), len(wl))
}

// compareSolve compares two dpmassess solve outputs: the states line
// exactly (when withStates), each measure by name and within
// solveTolerance, relative, with the goldens' 1e-12 absolute floor.
func compareSolve(got, want string, withStates bool) error {
	gl, wl := strings.Split(strings.TrimSpace(got), "\n"), strings.Split(strings.TrimSpace(want), "\n")
	if len(gl) != len(wl) || len(gl) < 2 {
		return fmt.Errorf("%d lines, reference %d", len(gl), len(wl))
	}
	if withStates && gl[0] != wl[0] {
		return fmt.Errorf("%q, reference %q", gl[0], wl[0])
	}
	for i := 1; i < len(gl); i++ {
		gf, wf := strings.Fields(gl[i]), strings.Fields(wl[i])
		if len(gf) != 2 || len(wf) != 2 || gf[0] != wf[0] {
			return fmt.Errorf("line %d: %q, reference %q", i+1, gl[i], wl[i])
		}
		g, err1 := strconv.ParseFloat(gf[1], 64)
		w, err2 := strconv.ParseFloat(wf[1], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("line %d: %q, reference %q", i+1, gl[i], wl[i])
		}
		if diff := math.Abs(g - w); diff > 1e-12 && diff/math.Max(math.Abs(w), 1e-12) > solveTolerance {
			return fmt.Errorf("%s = %s, reference %s", gf[0], gf[1], wf[1])
		}
	}
	return nil
}

// seedDependent reports whether column j of a row of the named general
// operation holds a simulated value, which changes with the seed.
func seedDependent(opName string, row []string, j int) bool {
	switch opName {
	case "fig3general", "fig6":
		return j >= 1
	case "fig5":
		// timeout, exact_dpm, sim_dpm, halfwidth, exact_nodpm, sim_nodpm, within_ci, rel_err
		return j == 2 || j == 3 || j == 5 || j == 6 || j == 7
	case "fig7", "fig8":
		if row[0] == "Pareto-dominated" {
			return j == len(row)-1
		}
		return len(row) == 4 && row[1] == "general" && j >= 2
	}
	return false
}

// compareGeneralShape checks a general output at a seed without a stored
// reference: same lines and cells as the paper-seed reference, except
// simulated cells (and the dash rules under them, whose width follows the
// cells).
func compareGeneralShape(opName, got, want string) error {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		return fmt.Errorf("%d lines, reference %d", len(gl), len(wl))
	}
	for i := range gl {
		gf, wf := strings.Fields(gl[i]), strings.Fields(wl[i])
		if len(gf) != len(wf) {
			return fmt.Errorf("line %d: %q, reference %q", i+1, gl[i], wl[i])
		}
		for j := range gf {
			if gf[j] == wf[j] || seedDependent(opName, wf, j) ||
				(strings.Trim(gf[j], "-") == "" && strings.Trim(wf[j], "-") == "") {
				continue
			}
			return fmt.Errorf("line %d column %d: %q, reference %q", i+1, j+1, gf[j], wf[j])
		}
	}
	return nil
}

// tableRows returns the data rows of a section: the lines after the dash
// rule, split into cells, up to the first blank line.
func tableRows(text string) [][]string {
	var rows [][]string
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "---"):
			inTable = true
		case inTable && strings.TrimSpace(line) == "":
			return rows
		case inTable:
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows
}

func parseCells(row []string, cols ...int) ([]float64, error) {
	out := make([]float64, len(cols))
	for k, c := range cols {
		if c >= len(row) {
			return nil, fmt.Errorf("row %q has no column %d", strings.Join(row, " "), c+1)
		}
		v, err := strconv.ParseFloat(row[c], 64)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// checkGeneralConsistency checks what a general output must satisfy at
// any seed: Fig. 7/8 plot exactly the simulations of Fig. 3/6, Fig. 5's
// simulated energy lies within four half-widths of the exact value, and
// Fig. 6's quality is one minus its miss rate.
func checkGeneralConsistency(opName, got string, outputs map[string]string) error {
	rows := tableRows(got)
	switch opName {
	case "fig5":
		for _, r := range rows {
			v, err := parseCells(r, 1, 2, 3)
			if err != nil {
				return err
			}
			if math.Abs(v[1]-v[0]) > 4*v[2] {
				return fmt.Errorf("timeout %s: simulated energy %g is more than four half-widths (%g) from exact %g", r[0], v[1], v[2], v[0])
			}
		}
	case "fig6":
		for _, r := range rows {
			v, err := parseCells(r, 5, 6, 7, 8)
			if err != nil {
				return err
			}
			if math.Abs(v[0]+v[2]-1) > 5e-6 || math.Abs(v[1]+v[3]-1) > 5e-6 {
				return fmt.Errorf("period %s: quality is not one minus miss", r[0])
			}
		}
	case "fig7", "fig8":
		src, xCol, yCol := "fig3general", 3, 5
		if opName == "fig8" {
			src, xCol, yCol = "fig6", 5, 1
		}
		want := make(map[string][2]string)
		for _, r := range tableRows(outputs[src]) {
			if len(r) > yCol && len(r) > xCol {
				want[r[0]] = [2]string{r[xCol], r[yCol]}
			}
		}
		for _, r := range rows {
			if len(r) != 4 || r[1] != "general" {
				continue
			}
			w, ok := want[r[0]]
			if !ok || w != [2]string{r[2], r[3]} {
				return fmt.Errorf("knob %s: general point (%s, %s) differs from %s's %v", r[0], r[2], r[3], src, w)
			}
		}
	}
	return nil
}
