package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	mg "multigossip"
	"multigossip/internal/graph"
	"multigossip/internal/schedule"
	"multigossip/internal/sim"
)

// jobOut is what one lib-pipeline job produced; the traced and untraced
// passes must agree on all of it.
type jobOut struct {
	rounds     int
	radius     int
	deliveries int64
	completeAt int
	coverage   float64
	complete   bool
}

// libInput is a job with its network and the oracle's expectations.
type libInput struct {
	job libJob
	nw  *mg.Network
	tr  *truth
}

// libSetup builds every job's network and warms the planner once per job;
// the oracle's expectations are computed beforehand and not timed.
func libSetup(jobs []libJob, or *oracle) ([]libInput, error) {
	in := make([]libInput, len(jobs))
	for i, j := range jobs {
		tr, err := or.get(j.Topo)
		if err != nil {
			return nil, err
		}
		nw, err := j.Topo.build()
		if err != nil {
			return nil, err
		}
		if _, err := nw.PlanGossip(); err != nil {
			return nil, err
		}
		in[i] = libInput{job: j, nw: nw, tr: tr}
	}
	return in, nil
}

// runJob is one library pipeline through the public API: PlanGossip, every
// round through RoundAppend (each round timed into roundMS), Simulate,
// ExecuteWithFaults.
func runJob(in libInput, roundMS *[]float64) (jobOut, error) {
	p, err := in.nw.PlanGossip()
	if err != nil {
		return jobOut{}, err
	}
	out := jobOut{rounds: p.Rounds(), radius: p.Radius()}
	var buf []mg.Transmission
	for t := 0; t < p.Rounds(); t++ {
		begin := time.Now()
		buf = p.RoundAppend(t, buf[:0])
		*roundMS = append(*roundMS, msOf(time.Since(begin)))
		for _, tx := range buf {
			out.deliveries += int64(len(tx.To))
		}
	}
	rep, err := p.Simulate()
	if err != nil {
		return jobOut{}, err
	}
	out.completeAt = rep.CompleteAt
	fr, err := p.ExecuteWithFaults(mg.WithLinkLoss(linkLoss, in.job.LossSeed), mg.WithRepairBudget(repairBudget))
	if err != nil {
		return jobOut{}, err
	}
	out.coverage, out.complete = fr.FinalCoverage, fr.Complete
	return out, nil
}

// checkJob validates a job's output against the oracle: rounds = n +
// radius, every processor receives every other message exactly once
// (Σ|To| = n(n−1)), the simulator completes at the plan's last round, and
// execution under loss repairs to full coverage.
func checkJob(in libInput, o jobOut) error {
	n := int64(in.tr.n)
	switch {
	case o.radius != in.tr.rad || o.rounds != in.tr.n+in.tr.rad:
		return fmt.Errorf("%s: radius %d rounds %d, want %d and %d", in.job.Topo, o.radius, o.rounds, in.tr.rad, in.tr.n+in.tr.rad)
	case o.deliveries != n*(n-1):
		return fmt.Errorf("%s: %d deliveries, want n(n-1) = %d", in.job.Topo, o.deliveries, n*(n-1))
	case o.completeAt != o.rounds:
		return fmt.Errorf("%s: simulation completes at %d, want %d", in.job.Topo, o.completeAt, o.rounds)
	case !o.complete || o.coverage != 1:
		return fmt.Errorf("%s: execution complete=%v coverage=%v, want true and 1", in.job.Topo, o.complete, o.coverage)
	}
	return nil
}

func runLibPipeline(e env) (*report, error) {
	jobs := libJobs(e.seed)
	or := newOracle()
	e.params["jobs"] = jobs
	e.params["link_loss"], e.params["repair_budget"] = linkLoss, repairBudget
	for _, j := range jobs {
		if _, err := or.get(j.Topo); err != nil {
			return nil, err
		}
	}
	// Set-up here is cheap (well under a second), so it repeats more often
	// than a served workload's to steady its median.
	repeats := 2*setupRepeats - 1
	if e.trace {
		repeats = 1
	}
	var (
		setups []float64
		in     []libInput
	)
	for k := 0; k < repeats; k++ {
		begin := time.Now()
		var err error
		if in, err = libSetup(jobs, or); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	out := &report{record: map[string]any{"setup_s": setups}}
	if e.trace {
		return out, libTraced(in, out)
	}

	var roundMS, jobMS []float64
	begin := time.Now()
	for time.Since(begin) < e.seconds {
		for _, j := range in {
			// Each job starts from a collected heap, so the random-2048
			// job's garbage is not charged to whichever job follows it.
			runtime.GC()
			t0 := time.Now()
			o, err := runJob(j, &roundMS)
			jobMS = append(jobMS, msOf(time.Since(t0)))
			out.attempted++
			if err == nil {
				err = checkJob(j, o)
			}
			if err != nil {
				out.failed++
				out.failures = append(out.failures, err.Error())
			}
		}
	}
	elapsed := time.Since(begin)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	rounds, job := summarize(roundMS), summarize(jobMS)
	out.record["timings_ms"] = map[string]timing{"round": rounds, "job": job}
	out.record["elapsed_s"] = elapsed.Seconds()
	out.set("setup_s", median(setups), "s")
	out.set("ok_frac", float64(out.attempted-out.failed)/float64(max(1, out.attempted)), "ratio")
	out.set("peak_rss_mb", rss, "MB")
	out.set("fast_p50_ms", rounds.P50, "ms")
	out.set("fast_p90_ms", rounds.at(90), "ms")
	out.set("slow_p50_ms", job.P50, "ms")
	out.set("slow_p90_ms", job.at(90), "ms")
	out.set("rate_per_s", float64(out.attempted)/elapsed.Seconds(), "1/s")
	nameMetrics(out, "round", rounds, "job", job, "jobs_per_s")
	return out, nil
}

// libTraced runs the job list once through the public API, untraced, and
// once through the layers with a span per call, and requires the same
// outputs from both.
func libTraced(in []libInput, out *report) error {
	var plain []jobOut
	var scratch []float64
	begin := time.Now()
	for _, j := range in {
		o, err := runJob(j, &scratch)
		if err != nil {
			return err
		}
		plain = append(plain, o)
	}
	plainWall := time.Since(begin)

	setupT, t := newTracer(), newTracer()
	graphs := make([]*graph.Graph, len(in))
	for i, j := range in {
		var err error
		setupT.do("graph.build", func() { graphs[i], err = internalGraph(j.job.Topo) })
		if err != nil {
			return err
		}
	}
	ts := &tracedServer{t: t, stats: &layerCounts{}}
	begin = time.Now()
	for i, j := range in {
		t.req = i
		o, err := ts.job(graphs[i], j.job)
		if err != nil {
			return err
		}
		out.attempted++
		if err := checkJob(j, o); err != nil {
			out.failed++
			out.failures = append(out.failures, "traced: "+err.Error())
		} else if o != plain[i] {
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("traced %s: %+v, untraced %+v", j.job.Topo, o, plain[i]))
		}
	}
	tracedWall := time.Since(begin)
	layerMetrics(out, setupT.spans, t.spans, ts.stats, len(in), plainWall, plainWall, tracedWall, nil)
	return nil
}

// job is runJob split into the layers, one span per call.
func (s *tracedServer) job(g *graph.Graph, j libJob) (jobOut, error) {
	var snap *graph.Graph
	s.t.do("graph.snapshot", func() { snap = g.Clone() })
	p, err := s.buildPlan(snap)
	if err != nil {
		return jobOut{}, err
	}
	out := jobOut{rounds: p.imp.Rounds(), radius: p.imp.Height()}
	var buf []schedule.Transmission
	for t := 0; t < out.rounds; t++ {
		for _, tx := range s.round(p, t, &buf) {
			out.deliveries += int64(len(tx.To))
		}
	}
	var res sim.Result
	id := s.t.begin("sim.run")
	res, err = sim.Run(p.imp.Topo(), sim.Options{})
	s.t.end(id)
	if err != nil {
		return jobOut{}, err
	}
	sp := s.t.spans[id]
	s.stats.simEvents += res.Events
	s.stats.simNS += int64(sp.end - sp.start)
	out.completeAt = res.CompleteAt
	out.coverage, out.complete, err = s.execute(p, j.LossSeed)
	return out, err
}
