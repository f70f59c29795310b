package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// layers are the repository's layers the traced run attributes time to;
// each span's name starts with one of them.
var layers = []string{"graph", "spantree", "implicit", "core", "fault", "repair", "sim", "plancache", "planstore"}

// replayAll serves reqs in order and returns the replies and wall time.
func replayAll(s server, reqs []*request) ([]reply, time.Duration, error) {
	out := make([]reply, len(reqs))
	begin := time.Now()
	for i, r := range reqs {
		rep, err := s.serve(r)
		if err != nil {
			return nil, 0, fmt.Errorf("in-process replay of request %d (%s %s): %w", r.ID, r.Class, r.Topo, err)
		}
		out[i] = rep
	}
	return out, time.Since(begin), nil
}

// traced is the serve workloads' per-layer run. The HTTP phase already ran
// untraced; it supplies the gossipd, plancache and client figures. Then the
// same warm-up and request stream are replayed in process twice, untraced
// through the public API and traced through the layers, and the answers
// must agree with each other and with gossipd's.
func (w serveWorkload) traced(e env, or *oracle, out *report, warm []*request, fixed *phase, before, after map[string]float64) error {
	reqs := make([]*request, len(fixed.out))
	for i, o := range fixed.out {
		reqs[i] = o.req
	}
	facade := newFacadeServer(filepath.Join(e.workdir, "facade-store"), w.cacheEntries)
	if _, _, err := replayAll(facade, warm); err != nil {
		return err
	}
	plain, plainWall, err := replayAll(facade, reqs)
	if err != nil {
		return err
	}

	setupT, reqT := newTracer(), newTracer()
	ts := newTracedServer(setupT, filepath.Join(e.workdir, "traced-store"), w.cacheEntries)
	if _, _, err := replayAll(ts, warm); err != nil {
		return err
	}
	ts.t = reqT
	traced, tracedWall, err := replayAll(ts, reqs)
	if err != nil {
		return err
	}

	// Answers: traced against untraced replay (source included, since both
	// ran the same sequence against equally sized caches), and both against
	// what gossipd answered.
	mismatches := 0
	for i, o := range fixed.out {
		want := plain[i]
		if traced[i] != want {
			mismatches++
			continue
		}
		if o.err != nil {
			continue // already counted by the checks
		}
		var wire reply
		if err := or.wire(o, &wire); err != nil || !wire.sameAnswer(want) {
			mismatches++
		}
	}
	if mismatches > 0 {
		out.failed++
		out.failures = append(out.failures, fmt.Sprintf("traced replay: %d of %d answers differ between traced, untraced and gossipd", mismatches, len(reqs)))
	}

	var e2e time.Duration
	var svc []float64
	var windows, winBytes int
	for _, o := range fixed.out {
		e2e += o.done - o.due
		svc = append(svc, o.serviceMS())
		if o.req.Kind == opWindow {
			windows++
			winBytes += len(o.body)
		}
	}
	d := func(name string) float64 { return after[name] - before[name] }
	handlerMS := 0.0
	if n := d("gossipd_request_seconds_count"); n > 0 {
		handlerMS = d("gossipd_request_seconds_sum") / n * 1000
	}
	var hitPlanMS []float64
	rejected := d("gossipd_rejected_total")
	for _, o := range fixed.out {
		if o.source == "hit" {
			hitPlanMS = append(hitPlanMS, o.planMS)
		}
		if o.status == 503 {
			rejected++
		}
	}
	hits, misses, disk, coal := d("plancache_hits_total"), d("plancache_misses_total"), d("plancache_disk_hits_total"), d("plancache_coalesced_total")
	total := hits + misses + disk + coal
	cs := clientStats(fixed)
	http := map[string]float64{
		"plancache.hits":         hits,
		"plancache.misses":       misses,
		"plancache.disk_hits":    disk,
		"plancache.coalesced":    coal,
		"plancache.evictions":    d("plancache_evictions_total"),
		"plancache.hit_frac":     ratio(hits, total),
		"plancache.lookup_us":    summarize(hitPlanMS).P50 * 1000,
		"planstore.writes":       d("planstore_writes_total"),
		"gossipd.handler_ms":     handlerMS,
		"gossipd.outside_ms":     summarize(svc).Mean - handlerMS,
		"gossipd.resp_kb.window": ratio(float64(winBytes), float64(windows)) / 1024,
		"gossipd.rejected":       rejected,
		"client.wait_p50_ms":     cs["wait_p50_ms"],
		"client.lateness_p99_ms": cs["lateness_p99_ms"],
		"client.backlog_max":     cs["backlog_max"],
	}
	layerMetrics(out, setupT.spans, reqT.spans, ts.stats, len(reqs), e2e, plainWall, tracedWall, http)
	return nil
}

// wire decodes gossipd's answer to o into the fields the replays produce.
func (or *oracle) wire(o *outcome, r *reply) error {
	var a answer
	if err := json.Unmarshal(o.body, &a); err != nil {
		return err
	}
	r.rounds, r.radius = a.Rounds, a.Radius
	switch o.req.Kind {
	case opWindow:
		from := 0
		if a.RoundsFrom != nil {
			from = *a.RoundsFrom
		}
		r.window = windowHash(from, a.Schedule)
	case opExecute:
		r.coverage, r.complete = a.FinalCoverage, a.Complete
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the per-layer result from the spans of a traced run.
// Per-call means and the layers' counts c cover set-up and measurement
// together (set-up is where serve-replay materialises); self times,
// coverage and overhead come from the measured spans only, per operation. e2e is the untraced
// end-to-end time of the same operations; plain and traced are the
// in-process untraced and traced replay times. http carries the figures
// only a served workload has; absent ones report 0, as does any layer a
// workload does not exercise.
func layerMetrics(out *report, setup, spans []span, sum *layerCounts, ops int,
	e2e, plain, traced time.Duration, http map[string]float64) {
	all := byName(append(append([]span(nil), setup...), spans...))
	set := func(name string, v float64, unit string) { out.set(name, v, unit) }
	set("graph.build_ms", all["graph.build"].meanMS(), "ms")
	set("graph.fingerprint_us", all["graph.fingerprint"].meanMS()*1000, "us")
	set("graph.sweep_ms", all["graph.sweep"].meanMS(), "ms")
	set("graph.sweep_bfs", ratio(float64(sum.sweepBFS), float64(sum.sweeps)), "count")
	set("graph.sweep_pruned_frac", ratio(float64(sum.sweepPruned), float64(sum.sweepRoots)), "ratio")
	set("spantree.label_ms", all["spantree.label"].meanMS(), "ms")
	set("implicit.build_ms", all["implicit.build"].meanMS(), "ms")
	set("implicit.round_us.deep", ratio(float64(sum.nsDeep), float64(sum.roundsDeep))/1000, "us")
	set("implicit.round_us.shallow", ratio(float64(sum.nsShallow), float64(sum.roundsShallow))/1000, "us")
	set("implicit.ns_per_delivery", ratio(float64(sum.nsRounds), float64(sum.deliveries)), "ns")
	set("core.materialise_ms", all["core.materialise"].meanMS(), "ms")
	set("core.materialised_mb", ratio(float64(sum.materialisedBytes), float64(sum.materialised))/(1<<20), "MB")
	set("fault.execute_ms", all["fault.execute"].meanMS(), "ms")
	set("fault.dropped", ratio(float64(sum.dropped), float64(sum.executes)), "count")
	set("repair.run_ms", all["repair.run"].meanMS(), "ms")
	set("repair.iterations", ratio(float64(sum.repairIters), float64(sum.repairs)), "count")
	set("repair.rounds", ratio(float64(sum.repairRounds), float64(sum.repairs)), "count")
	set("repair.pairs_per_round", ratio(float64(sum.repaired), float64(sum.repairRounds)), "count")
	set("sim.run_ms", all["sim.run"].meanMS(), "ms")
	set("sim.ns_per_event", ratio(float64(sum.simNS), float64(sum.simEvents)), "ns")
	set("planstore.store_ms", all["planstore.store"].meanMS(), "ms")
	set("planstore.load_ms", all["planstore.load"].meanMS(), "ms")
	for _, m := range httpMetrics {
		set(m.name, http[m.name], m.unit)
	}
	self := layerSelf(spans)
	for _, l := range layers {
		set(l+".self_ms", msOf(self[l])/float64(max(1, ops)), "ms")
	}
	set("trace.uncovered_frac", ratio(float64(max(0, e2e-covered(spans))), float64(e2e)), "ratio")
	set("trace.overhead_frac", ratio(float64(traced-plain), float64(plain)), "ratio")
	out.record["trace"] = map[string]any{
		"spans": len(spans), "setup_spans": len(setup), "ops": ops,
		"e2e_s": e2e.Seconds(), "covered_s": covered(spans).Seconds(),
		"untraced_replay_s": plain.Seconds(), "traced_replay_s": traced.Seconds(),
	}
}

// httpMetrics are the per-layer figures only a served workload has.
var httpMetrics = []struct{ name, unit string }{
	{"plancache.hits", "count"}, {"plancache.misses", "count"}, {"plancache.disk_hits", "count"},
	{"plancache.coalesced", "count"}, {"plancache.evictions", "count"}, {"plancache.hit_frac", "ratio"},
	{"plancache.lookup_us", "us"}, {"planstore.writes", "count"}, {"gossipd.handler_ms", "ms"},
	{"gossipd.outside_ms", "ms"}, {"gossipd.resp_kb.window", "KiB"}, {"gossipd.rejected", "count"},
	{"client.wait_p50_ms", "ms"}, {"client.lateness_p99_ms", "ms"}, {"client.backlog_max", "count"},
}
