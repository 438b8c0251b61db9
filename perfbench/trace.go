package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one recorded interval: a layer call, a session stage, an
// experiment or a whole pass. Parent is the index of the enclosing span
// (-1 for a pass), so a span's self time is its duration minus the part
// its children cover.
type span struct {
	Name    string        `json:"name"`
	Pass    int           `json:"pass"`
	Parent  int           `json:"parent"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	childNs time.Duration
}

// recorder keeps spans in memory for one goroutine: the traced replay
// calls the layers one at a time, so spans nest strictly and self times
// never overlap.
type recorder struct {
	t0    time.Time
	pass  int
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Pass: r.pass, Parent: parent, Start: time.Since(r.t0)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close in reverse order.
func (r *recorder) end(id int) {
	sp := &r.spans[id]
	sp.End = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
	if sp.Parent >= 0 {
		r.spans[sp.Parent].childNs += sp.End - sp.Start
	}
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func() error) error {
	id := r.begin(name)
	defer r.end(id)
	return fn()
}

// selfSeconds sums the self time of every span, by name.
func (r *recorder) selfSeconds() map[string]float64 {
	out := make(map[string]float64)
	for _, sp := range r.spans {
		out[sp.Name] += (sp.End - sp.Start - sp.childNs).Seconds()
	}
	return out
}

// writeJSON writes the spans, in start order and with their self times,
// to path.
func (r *recorder) writeJSON(path string) error {
	type row struct {
		ID int `json:"id"`
		span
		SelfNs time.Duration `json:"self_ns"`
	}
	rows := make([]row, len(r.spans))
	for i, sp := range r.spans {
		rows[i] = row{ID: i, span: sp, SelfNs: sp.End - sp.Start - sp.childNs}
	}
	buf, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
