package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond, want >= %d", c.n, c.want, beyond(c.n, c.want), minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	tm := summarize([]float64{3, 1, 2})
	if tm.P50 != 2 || tm.Max != 3 || tm.Mean != 2 || tm.TailPct != 0 {
		t.Errorf("summarize(3,1,2) = %+v", tm)
	}
}

func TestSearchLadderFindsKnee(t *testing.T) {
	for knee := 0; knee <= 40; knee++ {
		probes := 0
		got := searchLadder(map[int]bool{20: knee >= 20}, -1, 12, func(k int) bool {
			probes++
			return k <= knee
		})
		if got != knee {
			t.Errorf("knee %d: search returned %d after %d probes", knee, got, probes)
		}
	}
	// A passing hint within a gallop of the knee pins it in three probes.
	for knee := 32; knee < 32+gallop; knee++ {
		got := searchLadder(map[int]bool{20: true}, 32, 3, func(k int) bool { return k <= knee })
		if got != knee {
			t.Errorf("knee %d, hint 32: got %d", knee, got)
		}
	}
	// An exhausted budget returns the highest rung known to pass.
	got := searchLadder(map[int]bool{10: true}, -1, 1, func(k int) bool { return k <= 30 })
	if got != 10+gallop {
		t.Errorf("one probe from rung 10: got %d, want %d", got, 10+gallop)
	}
	if got := searchLadder(map[int]bool{0: false}, -1, 4, func(int) bool { return false }); got != -1 {
		t.Errorf("nothing passes: got %d, want -1", got)
	}
}

// TestLadderAgainstSyntheticServer drives the open-loop generator through
// the ladder search against a server that serializes requests behind a
// fixed service time, so its capacity is known: the reported rate must
// sit at or below that capacity and not far under it.
func TestLadderAgainstSyntheticServer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live HTTP server for several seconds")
	}
	const service = 4 * time.Millisecond // capacity 250 requests/s
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(service)
		mu.Unlock()
		json.NewEncoder(w).Encode(map[string]string{"source": "hit"})
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2)
	defer c.close()
	w := serveWorkload{limitMS: 50, fast: func(o *outcome) bool { return o.source == "hit" }}
	s := newMixStream(1, 8)
	base := rungAtOrBelow(100)
	known := map[int]bool{base: w.passes(c.runOpen(s, rungRate(base), time.Second, probeAbortBacklog))}
	best := searchLadder(known, -1, 5, func(k int) bool {
		return w.passes(c.runOpen(s, rungRate(k), 800*time.Millisecond, probeAbortBacklog))
	})
	capacity := float64(time.Second / service)
	if got := rungRate(best); got > capacity*1.05 || got < capacity*0.6 {
		t.Errorf("max rate %.1f/s (rung %d), capacity %.1f/s", got, best, capacity)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// A server that stalls the first request makes every request queued
	// behind it late: latency from due must include that wait.
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(200 * time.Millisecond) })
		json.NewEncoder(w).Encode(map[string]string{"source": "hit"})
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()
	ph := c.runOpen(newMixStream(1, 8), 100, 300*time.Millisecond, 0)
	if len(ph.out) != 30 {
		t.Fatalf("sent %d requests, want 30", len(ph.out))
	}
	second := ph.out[1]
	if second.latencyMS() < 150 || second.serviceMS() > 100 {
		t.Errorf("request queued behind a 200ms stall: latency from due %.1fms, service %.1fms",
			second.latencyMS(), second.serviceMS())
	}
	if ph.backlogMax < 5 {
		t.Errorf("backlog max %d behind a 200ms stall at 100/s, want >= 5", ph.backlogMax)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "plancache.get", parent: -1, start: 0, end: 10 * ms},
		{name: "graph.sweep", parent: 0, start: 1 * ms, end: 3 * ms},
		{name: "spantree.label", parent: 0, start: 2 * ms, end: 5 * ms},   // overlaps the sweep
		{name: "planstore.store", parent: 0, start: 7 * ms, end: 12 * ms}, // runs past its parent
		{name: "graph.build", parent: -1, start: 20 * ms, end: 21 * ms},
	}
	want := []time.Duration{3 * ms, 2 * ms, 3 * ms, 5 * ms, 1 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	layers := layerSelf(spans)
	if layers["graph"] != 3*ms || layers["plancache"] != 3*ms || layers["planstore"] != 5*ms {
		t.Errorf("layerSelf = %v", layers)
	}
	if got := covered(spans); got != 11*ms {
		t.Errorf("covered = %v, want 11ms", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.req = 7
	tr.do("plancache.get", func() {
		tr.do("graph.sweep", func() {})
		tr.do("implicit.build", func() {})
	})
	tr.do("graph.build", func() {})
	parents := []int{-1, 0, 0, -1}
	for i, s := range tr.spans {
		if s.parent != parents[i] || s.req != 7 || s.end < s.start {
			t.Errorf("span %d %+v: want parent %d, request 7", i, s, parents[i])
		}
	}
}

// TestStreamsDeterministic pins that a seed fixes every generated input and
// that different seeds give different ones.
func TestStreamsDeterministic(t *testing.T) {
	draw := func(s stream, pre func() []topo) ([]topo, []request) {
		var p []topo
		if pre != nil {
			p = pre()
		}
		var out []request
		for i := 0; i < 3000; i++ {
			out = append(out, *s.next())
		}
		return p, out
	}
	mix := func(seed int64) ([]topo, []request) {
		s := newMixStream(seed, 8)
		return draw(s, s.preseed)
	}
	replay := func(seed int64) ([]topo, []request) {
		return draw(newReplayStream(seed, []int{1536, 1536, 2052, 1056}), nil)
	}
	for name, gen := range map[string]func(int64) ([]topo, []request){"mix": mix, "replay": replay} {
		p1, r1 := gen(42)
		p2, r2 := gen(42)
		if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: seed 42 gave two different streams", name)
		}
		_, r3 := gen(43)
		if reflect.DeepEqual(r1, r3) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", name)
		}
	}
	if !reflect.DeepEqual(libJobs(5), libJobs(5)) || reflect.DeepEqual(libJobs(5), libJobs(6)) {
		t.Error("libJobs is not a function of its seed alone")
	}
}

// TestMixStreamShape checks the serve-mix proportions and that a revisit
// only names a cold key that enough later cold keys have pushed out of the
// memory tier, and names it once.
func TestMixStreamShape(t *testing.T) {
	s := newMixStream(3, 8)
	pre := s.preseed()
	inserted := map[topo]int{}
	for i, p := range pre {
		inserted[p] = i - len(pre)
	}
	counts := map[string]int{}
	revisited := map[topo]bool{}
	cold := 0
	const n = 20000
	for i := 0; i < n; i++ {
		r := s.next()
		counts[r.Class]++
		switch r.Class {
		case "new":
			if _, ok := inserted[r.Topo]; ok {
				t.Fatalf("new key %s handed out twice", r.Topo)
			}
			inserted[r.Topo] = cold
			cold++
		case "revisit":
			at, ok := inserted[r.Topo]
			if !ok || revisited[r.Topo] || at > cold-(8+evictMargin) {
				t.Fatalf("revisit of %s: inserted at %d (known %v), now %d, revisited before %v", r.Topo, at, ok, cold, revisited[r.Topo])
			}
			revisited[r.Topo] = true
			cold++
		}
	}
	if hot := float64(counts["hot"]) / n; hot < hotShare-0.001 || hot > hotShare+0.001 {
		t.Errorf("hot share %.3f, want about %.2f", hot, hotShare)
	}
	if counts["revisit"] < counts["new"]*8/10 {
		t.Errorf("%d revisits against %d new keys, want about half the cold traffic each", counts["revisit"], counts["new"])
	}
}

func TestReconcile(t *testing.T) {
	outs := []*outcome{
		{req: &request{Kind: opSummary}, source: "hit"},
		{req: &request{Kind: opSummary}, source: "miss"},
		{req: &request{Kind: opWindow}, body: []byte(`{"source":"hit"}`)},
	}
	before := parseMetrics("plancache_hits_total 5\nplancache_misses_total 1\ngossipd_requests_total 9\nplancache_entries 3\n")
	after := parseMetrics("# HELP x\nplancache_hits_total 7\nplancache_misses_total 2\ngossipd_requests_total 12\nplancache_entries 4\nfoo{a=\"b\"} 1\n")
	if _, errs := reconcile(outs, before, after); len(errs) != 0 {
		t.Errorf("matching counts reported %v", errs)
	}
	after["plancache_hits_total"] = 8
	if _, errs := reconcile(outs, before, after); len(errs) != 1 {
		t.Errorf("one extra server hit: got %v, want one mismatch", errs)
	}
}
