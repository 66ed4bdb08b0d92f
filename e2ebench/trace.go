package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one campaign share the
// campaign ID; Parent is the enclosing span's ID (0 at the root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Campaign int    `json:"campaign"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. The benchmark calls
// every layer from one goroutine, so open spans nest as a stack. A nil
// tracer records nothing: the untraced runs pay one nil check per call.
type tracer struct {
	origin   time.Time
	campaign int
	spans    []span
	open     []int // indices into spans
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Campaign: t.campaign, Name: name,
		StartNS: time.Since(t.origin).Nanoseconds(),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNS = time.Since(t.origin).Nanoseconds()
}

// campaignSpans returns the spans of one campaign.
func (t *tracer) campaignSpans(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Campaign == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, span time minus the time its direct
// children cover. Children never overlap: one goroutine makes the calls.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[int]time.Duration{}
	for i := range spans {
		child[spans[i].Parent] += spans[i].dur()
	}
	self := map[string]time.Duration{}
	for i := range spans {
		self[spans[i].Name] += spans[i].dur() - child[spans[i].ID]
	}
	return self
}

// totals sums span time per name.
func totals(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i := range spans {
		out[spans[i].Name] += spans[i].dur()
	}
	return out
}

// write stores every span as JSON at path.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"meta": meta, "spans": t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
