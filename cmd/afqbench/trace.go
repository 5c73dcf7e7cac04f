package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call at a layer boundary, recorded by the
// benchmark around a call into that layer's public functions. The
// spans of one request share its Request number; Parent is the span
// one level up (0 for the root, client.request).
//
// Only the root runs against the real process. Every other span is a
// separate call one level down on an in-process copy of that layer,
// made after its parent returned, so a child's interval does not lie
// inside its parent's. Self time is therefore taken from durations:
// a span's duration minus its children's.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Request int            `json:"request"`
	Name    string         `json:"name"`
	Class   string         `json:"class,omitempty"`
	StartUS float64        `json:"start_us"`
	DurUS   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id.
func (tr *tracer) add(request, parent int, name, class string, start time.Time, dur time.Duration, attrs map[string]any) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Request: request, Name: name, Class: class,
		StartUS: float64(start.Sub(tr.t0)) / 1e3,
		DurUS:   float64(dur) / 1e3,
		Attrs:   attrs,
	})
	return id
}

// timed runs f and records it as a span.
func (tr *tracer) timed(request, parent int, name, class string, f func()) int {
	t0 := time.Now()
	f()
	return tr.add(request, parent, name, class, t0, time.Since(t0), nil)
}

// selfTimes returns each span's self time in µs, by span id: its
// duration minus the durations of its children, and never below zero
// (a child measured on its own can come out slower than the parent
// that contained the same work).
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.DurUS
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.DurUS
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// match selects spans by name and, unless class is "*", by class.
func (tr *tracer) match(name, class string) []span {
	var out []span
	for _, s := range tr.spans {
		if s.Name == name && (class == "*" || s.Class == class) {
			out = append(out, s)
		}
	}
	return out
}

// medianUS is the median duration in µs of the matching spans, 0 when
// there are none: a layer that is not on this workload's path.
func (tr *tracer) medianUS(name, class string) float64 {
	var d []float64
	for _, s := range tr.match(name, class) {
		d = append(d, s.DurUS)
	}
	return medianOrZero(d)
}

// medianSelfUS is the median self time in µs of the matching spans.
func (tr *tracer) medianSelfUS(name, class string) float64 {
	self := selfTimes(tr.spans)
	var d []float64
	for _, s := range tr.match(name, class) {
		d = append(d, self[s.ID])
	}
	return medianOrZero(d)
}

// medianAttr is the median of a numeric attribute of the matching
// spans, 0 when none carries it.
func (tr *tracer) medianAttr(name, class, attr string) float64 {
	var d []float64
	for _, s := range tr.match(name, class) {
		switch v := s.Attrs[attr].(type) {
		case int:
			d = append(d, float64(v))
		case float64:
			d = append(d, v)
		}
	}
	return medianOrZero(d)
}

// accounting says how well the separately measured layers add up to the
// handler that contains them, over the server.handler spans of a class.
// Every span below a handler is a call of its own, so nothing forces the
// parts to fit the whole:
//
//   - leafSum is the median of (Σ durations of the leaf spans below the
//     handler ÷ the handler's duration). What is missing from 1 is time no
//     lower layer was seen to spend: the self time of server, cache and
//     core between the leaves.
//   - overrun is the median of (Σ over the handler and every span below
//     it of the time by which its children, added up, outran it ÷ the
//     handler's duration): 0 when every part fits inside its whole.
func (tr *tracer) accounting(class string) (leafSum, overrun float64) {
	children := make(map[int][]span)
	for _, s := range tr.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var walk func(s span) (leaves, over float64)
	walk = func(s span) (leaves, over float64) {
		kids := children[s.ID]
		if len(kids) == 0 {
			return s.DurUS, 0
		}
		sum := 0.0
		for _, c := range kids {
			l, o := walk(c)
			leaves += l
			over += o
			sum += c.DurUS
		}
		return leaves, over + max(0, sum-s.DurUS)
	}
	var ls, os []float64
	for _, s := range tr.match("server.handler", class) {
		if s.DurUS > 0 {
			l, o := walk(s)
			ls = append(ls, l/s.DurUS)
			os = append(os, o/s.DurUS)
		}
	}
	return medianOrZero(ls), medianOrZero(os)
}

// write stores the spans as one JSON document.
func (tr *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, seed,
		"client.request runs against the real process; every other span is a separate in-process call one level below its parent, so self time = dur_us − Σ children's dur_us",
		tr.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
