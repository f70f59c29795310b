package multigossip

import (
	"errors"
	"fmt"

	"multigossip/internal/graph"
	"multigossip/internal/schedule"
	"multigossip/internal/trace"
	"multigossip/internal/weighted"
)

// WeightedPlan is a schedule for the weighted gossiping problem of
// Section 4: processor v starts with counts[v] >= 1 messages and every
// message must reach every processor. Like Plan it is immutable and safe
// to share between goroutines.
type WeightedPlan struct {
	network *graph.Graph // private topology snapshot
	plan    *weighted.Plan
}

// PlanWeightedGossip solves weighted gossiping by the paper's chain
// splitting: each processor with l messages is expanded into a chain of l
// virtual processors, ConcurrentUpDown runs on the expansion, and the
// schedule is contracted back (the splitting is "mimicked"). The expanded
// schedule takes exactly N + R rounds for N total messages and expanded
// radius R (Theorem 1 on the expansion). Like PlanGossip it plans against
// a private snapshot of the topology, so it is safe to run concurrently
// with link churn.
func (nw *Network) PlanWeightedGossip(counts []int) (*WeightedPlan, error) {
	g := nw.snapshotGraph()
	p, err := weighted.Gossip(g, counts)
	if err != nil {
		if errors.Is(err, graph.ErrDisconnected) {
			return nil, ErrDisconnected
		}
		return nil, err
	}
	return &WeightedPlan{network: g, plan: p}, nil
}

// Rounds returns the contracted schedule's total communication time.
func (p *WeightedPlan) Rounds() int { return p.plan.Schedule.Time() }

// TotalMessages returns the number of messages across all processors.
func (p *WeightedPlan) TotalMessages() int { return p.plan.TotalMessages }

// ExpandedRounds returns the chain-expanded schedule's total time, which is
// exactly TotalMessages + ExpandedRadius by Theorem 1.
func (p *WeightedPlan) ExpandedRounds() int { return p.plan.Expanded.Time() }

// ExpandedRadius returns the radius of the chain-expanded network.
func (p *WeightedPlan) ExpandedRadius() int { return p.plan.ExpandedRadius }

// MessageOwner returns the processor at which message m originates, or -1
// for a message id outside [0, TotalMessages).
func (p *WeightedPlan) MessageOwner(m int) int {
	if m < 0 || m >= len(p.plan.MsgOwner) {
		return -1
	}
	return p.plan.MsgOwner[m]
}

// Round returns the transmissions of round t of the contracted schedule.
// Out-of-range rounds — negative or past the end — return nil, matching
// Plan.Round. (An earlier version indexed the schedule unchecked and
// panicked on both.)
func (p *WeightedPlan) Round(t int) []Transmission {
	return p.RoundAppend(t, nil)
}

// RoundAppend appends the transmissions of round t to dst and returns the
// extended slice — the allocation-free counterpart of Round, with the same
// scratch-reuse contract as Plan.RoundAppend. Out-of-range rounds append
// nothing.
func (p *WeightedPlan) RoundAppend(t int, dst []Transmission) []Transmission {
	if t < 0 || t >= len(p.plan.Schedule.Rounds) {
		return dst
	}
	for _, tx := range p.plan.Schedule.Rounds[t] {
		dst = appendTransmission(dst, tx.Msg, tx.From, tx.To)
	}
	return dst
}

// TimetableOf renders processor v's rows of the contracted schedule. The
// contraction has no per-vertex tree role (chain-internal hops are
// mimicked away), so the flat send/receive view is used. A processor
// outside [0, n) renders a note instead.
func (p *WeightedPlan) TimetableOf(v int) string {
	if n := p.network.N(); v < 0 || v >= n {
		return noProcessorNote(v, n)
	}
	return trace.FormatTimetable(schedule.FlatView(p.plan.Schedule, v))
}

// Verify re-validates the contracted schedule under the model with the
// weighted initial hold sets and checks completion.
func (p *WeightedPlan) Verify() error {
	res, err := schedule.Run(p.network, p.plan.Schedule, schedule.Options{Initial: p.plan.InitialHolds()})
	if err != nil {
		return err
	}
	for v, h := range res.Holds {
		if !h.Full() {
			return fmt.Errorf("multigossip: processor %d is missing %d messages", v, len(h.Missing()))
		}
	}
	return nil
}

// SizeBytes reports the plan's resident size — the plancache.Sizer
// contract for the weighted cache tier. Both the contracted and the
// expanded schedule are charged; weighted plans are always materialised.
func (p *WeightedPlan) SizeBytes() int64 {
	const word = 8
	b := int64(p.network.N())*2*word + int64(p.network.M())*2*word
	b += p.plan.Schedule.SizeBytes() + p.plan.Expanded.SizeBytes()
	b += int64(len(p.plan.MsgOwner)) * word
	return b
}

// ExecuteWithFaults replays the weighted plan under injected faults with
// full fault propagation, then runs the same self-healing loop as
// Plan.ExecuteWithFaults: compute which processors miss which messages,
// synthesize model-valid repair rounds, execute them under the same fault
// model, and iterate within the repair budget. The repair engine is
// message-count agnostic, so the weighted instance (NMsg > N, weighted
// initial holds) reuses it unchanged; coverage fractions are over
// Processors() x TotalMessages() pairs.
func (p *WeightedPlan) ExecuteWithFaults(opts ...FaultOption) (FaultReport, error) {
	return executeWithFaults(p.network, p.plan.Schedule, p.plan.InitialHolds(), Weighted.String(), opts)
}
