// Package repair closes the loop that package fault opens: given the hold
// sets left behind by a faulty execution, it computes the residual deficit
// — which (processor, message) pairs are still missing — and greedily
// synthesizes repair rounds that deliver exactly those pairs. Repair
// schedules respect the full communication model (each processor multicasts
// at most one message and receives at most one message per round) but are
// not confined to the spanning tree the original schedule communicated
// over: any network link may carry a repair delivery, so a hole is filled
// from its nearest holder, not from its tree parent.
//
// Because repair rounds traverse the same lossy links as the original
// schedule, the engine iterates: plan a bounded batch of rounds from the
// current holds, execute it under the same fault injector, re-measure the
// deficit, and retry, up to a bounded number of iterations. Each iteration
// plans at most the network diameter rounds — enough for a wavefront from
// the holders of a message to reach every processor missing it when no
// further faults strike — so the retry loop converges geometrically under
// any sub-certain loss rate.
package repair

import (
	"fmt"

	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/obs"
	"multigossip/internal/schedule"
)

// DefaultMaxIterations bounds the retry loop when Options.MaxIterations is
// unset. Under i.i.d. loss rate p each missing pair survives an iteration
// with probability about p, so sixteen iterations put the residual deficit
// below any practical loss rate's noise floor.
const DefaultMaxIterations = 16

// MissingPairs returns the number of (processor, message) pairs absent
// from the hold sets — the size of the deficit repair must close.
func MissingPairs(holds []*schedule.Bitset) int {
	missing := 0
	for _, h := range holds {
		missing += h.Len() - h.Count()
	}
	return missing
}

// PlanRounds greedily synthesizes at most maxRounds repair rounds that
// shrink the deficit of holds on network g, assuming lossless delivery
// while planning (the caller re-executes the plan under its fault model and
// iterates). Each round assigns every deficient processor at most one
// receive: scanning its neighbours, it joins an already-planned multicast
// whose message it misses, or opens a new multicast from an idle neighbour
// holding one of its missing messages. A message received in round t is
// available for forwarding in round t+1, so each planned round advances the
// wavefront of every under-delivered message by one hop; while some
// processor misses a message held somewhere in a connected component, the
// round makes progress, and planning stops early once the deficit is empty
// or no link can supply any missing pair.
//
// holds is not modified. The returned schedule may be empty (zero rounds).
func PlanRounds(g *graph.Graph, holds []*schedule.Bitset, maxRounds int) *schedule.Schedule {
	n := g.N()
	nmsg := 0
	if n > 0 {
		nmsg = holds[0].Len()
	}
	s := schedule.NewWithMessages(n, nmsg)
	sim := make([]*schedule.Bitset, n)
	for v, h := range holds {
		sim[v] = h.Clone()
	}
	senderMsg := make([]int, n) // message processor u multicasts this round, -1 if idle
	senderTo := make([][]int, n)
	for t := 0; t < maxRounds; t++ {
		for u := range senderMsg {
			senderMsg[u] = -1
			senderTo[u] = senderTo[u][:0]
		}
		progress := false
		for d := 0; d < n; d++ {
			if sim[d].Full() {
				continue
			}
			for _, u := range g.Neighbors(d) {
				var m int
				if senderMsg[u] >= 0 {
					// u already multicasts this round; d may only join in.
					m = senderMsg[u]
					if sim[d].Has(m) {
						continue
					}
				} else {
					m = sim[u].FirstAndNot(sim[d])
					if m < 0 {
						continue
					}
					senderMsg[u] = m
				}
				senderTo[u] = append(senderTo[u], d)
				progress = true
				break // one receive per processor per round
			}
		}
		if !progress {
			break
		}
		for u, m := range senderMsg {
			if m < 0 {
				continue
			}
			s.AddSend(t, m, u, senderTo[u]...)
			for _, d := range senderTo[u] {
				sim[d].Set(m)
			}
		}
	}
	return s
}

// DefaultQuarantineThreshold is the suspicion threshold when
// Options.QuarantineThreshold is unset: after this many consecutive
// iterations in which every delivery over a link (or to a processor)
// failed, the link (processor) is quarantined and planning moves to the
// survivor subgraph. Three keeps transient loss from triggering spurious
// amputations (at loss rate p a healthy retried link is quarantined with
// probability ~p³) while bounding the rounds wasted on a permanent fault.
const DefaultQuarantineThreshold = 3

// Options configure a repair run.
type Options struct {
	// MaxIterations bounds the plan-execute-remeasure retry loop; zero
	// means DefaultMaxIterations.
	MaxIterations int
	// RoundsPerIteration caps the rounds planned per iteration; zero means
	// the survivor graph's per-component diameter, the distance a repair
	// wavefront may need to travel (recomputed after each quarantine).
	// Stalled iterations double the cap, up to the processor count, as
	// backoff against caps that turn out too tight.
	RoundsPerIteration int
	// Injector applies faults to the repair rounds themselves; nil runs
	// them lossless.
	Injector fault.Injector
	// RoundOffset is the absolute index of the first repair round — the
	// length of the schedule whose execution produced the deficit — so the
	// injector sees one consistent global round numbering.
	RoundOffset int
	// Validate re-checks every planned iteration against the communication
	// model (schedule.Run over the survivor graph with the current holds as
	// the initial state) before executing it, turning planner bugs into
	// errors instead of silently invalid repairs.
	Validate bool
	// QuarantineThreshold is the number of consecutive failed delivery
	// attempts after which a link or processor is quarantined out of the
	// survivor graph; zero means DefaultQuarantineThreshold.
	QuarantineThreshold int
	// StallPatience is the number of consecutive iterations with an
	// unchanged deficit and no quarantine change tolerated before the run
	// gives up with Outcome.Stalled set. Zero means the quarantine
	// threshold, so quarantine always gets its chance to fire before a
	// stall is declared.
	StallPatience int
	// RecordPlans retains every executed repair batch in Outcome.Plans, for
	// tests and tooling that audit what was planned when.
	RecordPlans bool
	// Observer, when non-nil, receives the structured events of the
	// observability layer: the round events of every executed repair batch
	// (absolute indices continuing from RoundOffset), one RepairIteration
	// event per plan-execute iteration, and a Quarantine event per
	// amputation.
	Observer obs.RoundObserver
}

// Outcome reports what a repair run achieved.
type Outcome struct {
	Holds      []*schedule.Bitset // final hold sets
	Iterations int                // plan-execute iterations run
	Rounds     int                // repair rounds executed across all iterations
	Dropped    int                // repair deliveries lost in flight
	Repaired   int                // (processor, message) pairs restored
	Complete   bool               // deficit fully closed

	// Stalled reports that the run gave up before exhausting its budget
	// because iterations stopped shrinking the deficit with reachable pairs
	// still missing and no quarantine left to change the topology.
	Stalled bool
	// ReachableCoverage is the fraction of reachable pairs held at the end,
	// where a missing pair is reachable when its message has a holder in
	// the destination's survivor-graph component (held pairs count as
	// trivially reachable). 1.0 means complete up to reachability: every
	// pair any repair could possibly deliver was delivered.
	ReachableCoverage float64
	// Unreachable lists the missing pairs beyond the reachable ceiling,
	// ordered by (Processor, Message).
	Unreachable []Pair
	// QuarantinedLinks and DownProcessors are the amputations the suspicion
	// tracker performed, ordered.
	QuarantinedLinks []graph.Edge
	DownProcessors   []int
	// Components is the number of connected components of the final
	// survivor graph; a quarantined processor is its own singleton, so any
	// value above 1 means the run degraded gracefully under partition.
	Components int
	// Quarantines records each amputation event with the iteration that
	// triggered it.
	Quarantines []QuarantineEvent
	// Plans holds the executed repair batches when Options.RecordPlans was
	// set, in execution order.
	Plans []*schedule.Schedule
}

// Run repairs the deficit of holds on network g: it iterates PlanRounds
// and fault.ExecuteTraced under opts until every processor holds every
// message it can still get. Transient loss is ridden out by retrying;
// permanent faults are detected by the suspicion tracker (consecutive
// failed attempts per link and per processor) and quarantined, after which
// planning continues over the survivor subgraph. The loop terminates when
// the reachable deficit is empty (complete up to reachability — under
// partition this is the best any recovery can do), when the deficit stops
// shrinking with nothing left to quarantine (Outcome.Stalled), or when the
// iteration budget runs out. holds is not modified; the returned Outcome
// reports the final hold sets, the cost, and the survivor topology.
func Run(g *graph.Graph, holds []*schedule.Bitset, opts Options) (Outcome, error) {
	n := g.N()
	if len(holds) != n {
		return Outcome{}, fmt.Errorf("repair: %d hold sets for %d processors", len(holds), n)
	}
	cur := make([]*schedule.Bitset, n)
	for v, h := range holds {
		if h.Len() != holds[0].Len() {
			return Outcome{}, fmt.Errorf("repair: hold set %d sized %d, want %d", v, h.Len(), holds[0].Len())
		}
		cur[v] = h.Clone()
	}
	out := Outcome{Holds: cur, ReachableCoverage: 1}
	deficit := MissingPairs(cur)
	if deficit == 0 {
		out.Complete = true
		out.Components = len(g.Components())
		return out, nil
	}
	initialDeficit := deficit
	iters := opts.MaxIterations
	if iters <= 0 {
		iters = DefaultMaxIterations
	}
	threshold := opts.QuarantineThreshold
	if threshold <= 0 {
		threshold = DefaultQuarantineThreshold
	}
	patience := opts.StallPatience
	if patience <= 0 {
		patience = threshold
	}
	susp := newSuspicion(n, threshold)
	surv := g
	adaptiveCap := opts.RoundsPerIteration <= 0
	baseCap := opts.RoundsPerIteration
	if adaptiveCap {
		baseCap = max(1, surv.ComponentDiameter())
	}
	capRounds := baseCap
	maxCap := max(n, baseCap)
	offset := opts.RoundOffset
	noProgress := 0
loop:
	for it := 0; it < iters && deficit > 0; it++ {
		if reachableDeficit(surv, cur) == 0 {
			break // complete up to reachability: the rest has no live holder
		}
		plan := PlanRounds(surv, cur, capRounds)
		if plan.Time() == 0 {
			// A reachable pair is always plannable (wavefront argument), so
			// an empty plan here means the planner is wedged: stop honestly.
			out.Stalled = true
			break
		}
		if opts.Validate {
			if _, err := schedule.Run(surv, plan, schedule.Options{Initial: cur}); err != nil {
				return out, fmt.Errorf("repair: planned rounds violate the model: %w", err)
			}
		}
		susp.beginIteration()
		next, dropped, err := fault.ExecuteTraced(g, plan, opts.Injector, cur, offset, susp.observe, opts.Observer)
		if err != nil {
			return out, fmt.Errorf("repair: %w", err)
		}
		out.Iterations++
		out.Rounds += plan.Time()
		out.Dropped += dropped
		offset += plan.Time()
		if opts.RecordPlans {
			out.Plans = append(out.Plans, plan)
		}
		newLinks, newProcs := susp.endIteration()
		quarantined := len(newLinks) > 0 || len(newProcs) > 0
		if opts.Observer != nil {
			opts.Observer.RepairIteration(it, obs.RepairStats{
				PlannedRounds: plan.Time(),
				DeficitBefore: deficit,
				DeficitAfter:  MissingPairs(next),
				Quarantined:   quarantined,
			})
			if quarantined {
				links := make([][2]int, len(newLinks))
				for i, e := range newLinks {
					links[i] = [2]int{e.U, e.V}
				}
				opts.Observer.Quarantine(it, links, newProcs)
			}
		}
		if quarantined {
			out.Quarantines = append(out.Quarantines, QuarantineEvent{
				Iteration: it, Links: newLinks, Processors: newProcs,
			})
			surv = susp.survivorGraph(g)
			if adaptiveCap {
				baseCap = max(1, surv.ComponentDiameter())
				// Recovery after an amputation should finish in one
				// decisive batch, not trickle diameter-sized iterations:
				// open the cap to the backoff ceiling. Receive bandwidth
				// (one message per processor per round), not wavefront
				// distance, bounds the post-quarantine deficit.
				capRounds = maxCap
			} else {
				capRounds = baseCap
			}
		}
		progressed := MissingPairs(next) < deficit
		cur = next
		deficit = MissingPairs(cur)
		switch {
		case quarantined:
			// The topology just changed; the replanned loop starts fresh
			// (and keeps the opened cap from the quarantine block).
			noProgress = 0
		case progressed:
			noProgress = 0
			capRounds = baseCap
		default:
			noProgress++
			if noProgress >= patience {
				out.Stalled = true
				break loop
			}
			// Backoff: the cap may be too tight for the survivor wavefront.
			capRounds = min(capRounds*2, maxCap)
		}
	}
	out.Holds = cur
	out.Repaired = initialDeficit - deficit
	out.Complete = deficit == 0
	out.QuarantinedLinks = susp.quarantinedLinks()
	out.DownProcessors = susp.downProcessors()
	out.Components = len(surv.Components())
	out.Unreachable = unreachablePairs(surv, cur)
	total := n * cur[0].Len()
	if reachable := total - len(out.Unreachable); reachable > 0 {
		out.ReachableCoverage = float64(total-deficit) / float64(reachable)
	}
	return out, nil
}
