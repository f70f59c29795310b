package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span, or -1.
type span struct {
	name       string
	req        int
	parent     int
	start, end time.Duration
}

// layer is the span name's prefix up to the first dot: "graph.sweep" is
// in layer "graph".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// tracer records spans in memory from one goroutine; nothing is written
// until the run ends. The enclosing span is the innermost open one.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	req   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children count
// once, and a child reaching outside its parent counts only inside it).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		self[i] = s.end - s.start - unionLength(ivs)
	}
	return self
}

// unionLength is the total length covered by the intervals.
func unionLength(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = iv[0], iv[1], true
			continue
		}
		curB = max(curB, iv[1])
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].layer()] += d
	}
	return out
}

// covered is the time inside any root span: the union of the top-level
// spans' intervals.
func covered(spans []span) time.Duration {
	var ivs [][2]time.Duration
	for _, s := range spans {
		if s.parent < 0 {
			ivs = append(ivs, [2]time.Duration{s.start, s.end})
		}
	}
	return unionLength(ivs)
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	n     int
	total time.Duration
}

func (s spanStats) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return msOf(s.total) / float64(s.n)
}

func byName(spans []span) map[string]spanStats {
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.name]
		st.n++
		st.total += s.end - s.start
		out[s.name] = st
	}
	return out
}
