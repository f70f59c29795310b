package repair

import (
	"testing"

	"multigossip/internal/core"
	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// basicHolds returns the basic-instance starting holds: processor p holds
// exactly message p.
func basicHolds(n int) []*schedule.Bitset {
	holds := make([]*schedule.Bitset, n)
	for v := range holds {
		holds[v] = schedule.NewBitset(n)
		holds[v].Set(v)
	}
	return holds
}

func fullHolds(n int) []*schedule.Bitset {
	holds := make([]*schedule.Bitset, n)
	for v := range holds {
		holds[v] = schedule.NewBitset(n)
		for m := 0; m < n; m++ {
			holds[v].Set(m)
		}
	}
	return holds
}

func TestMissingPairs(t *testing.T) {
	if got := MissingPairs(basicHolds(4)); got != 12 {
		t.Fatalf("basic instance deficit %d, want 12", got)
	}
	if got := MissingPairs(fullHolds(4)); got != 0 {
		t.Fatalf("full holds deficit %d, want 0", got)
	}
}

// TestPlanRoundsWavefront: a single message missing along a path reaches
// the far end in exactly its distance, the wavefront advancing one hop per
// round — the bound the per-iteration diameter cap relies on.
func TestPlanRoundsWavefront(t *testing.T) {
	g := graph.Path(6)
	holds := fullHolds(6)
	for v := 1; v < 6; v++ {
		holds[v].Clear(0) // message 0 held only by processor 0
	}
	s := PlanRounds(g, holds, 100)
	if s.Time() != 5 {
		t.Fatalf("repair took %d rounds, want 5 (distance from the holder)", s.Time())
	}
	if _, err := schedule.Run(g, s, schedule.Options{Initial: holds}); err != nil {
		t.Fatalf("planned rounds invalid: %v", err)
	}
	res, err := schedule.Run(g, s, schedule.Options{Initial: holds})
	if err != nil {
		t.Fatal(err)
	}
	for v, h := range res.Holds {
		if !h.Full() {
			t.Fatalf("processor %d still missing %v", v, h.Missing())
		}
	}
}

// TestPlanRoundsRespectsCap: the planner never emits more rounds than the
// cap, leaving the residue to the next iteration.
func TestPlanRoundsRespectsCap(t *testing.T) {
	g := graph.Path(6)
	holds := fullHolds(6)
	for v := 1; v < 6; v++ {
		holds[v].Clear(0)
	}
	s := PlanRounds(g, holds, 2)
	if s.Time() != 2 {
		t.Fatalf("cap 2 produced %d rounds", s.Time())
	}
}

// TestPlanRoundsMulticast: several processors missing the same message
// from a shared neighbour are served by one multicast, not serialized.
func TestPlanRoundsMulticast(t *testing.T) {
	g := graph.Star(5) // hub 0
	holds := fullHolds(5)
	for v := 1; v < 5; v++ {
		holds[v].Clear(0)
	}
	s := PlanRounds(g, holds, 10)
	if s.Time() != 1 {
		t.Fatalf("star repair took %d rounds, want 1", s.Time())
	}
	if got := s.Transmissions(); got != 1 {
		t.Fatalf("star repair used %d transmissions, want one multicast", got)
	}
	if got := s.Deliveries(); got != 4 {
		t.Fatalf("star repair made %d deliveries, want 4", got)
	}
}

// TestPlanRoundsUnrepairable: a message with no holder anywhere cannot be
// repaired; the planner stops instead of spinning.
func TestPlanRoundsUnrepairable(t *testing.T) {
	g := graph.Path(3)
	holds := fullHolds(3)
	for v := 0; v < 3; v++ {
		holds[v].Clear(1) // message 1 lost everywhere
	}
	s := PlanRounds(g, holds, 10)
	if s.Time() != 0 {
		t.Fatalf("planned %d rounds for an unrepairable deficit", s.Time())
	}
	out, err := Run(g, holds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete || out.Rounds != 0 {
		t.Fatalf("Run claimed completion on an unrepairable deficit: %+v", out)
	}
}

func TestRunNoDeficitIsFree(t *testing.T) {
	g := graph.Cycle(5)
	out, err := Run(g, fullHolds(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || out.Rounds != 0 || out.Iterations != 0 || out.Repaired != 0 {
		t.Fatalf("repairing a complete state cost something: %+v", out)
	}
}

func TestRunRejectsBadHolds(t *testing.T) {
	g := graph.Path(3)
	if _, err := Run(g, basicHolds(2), Options{}); err == nil {
		t.Fatal("accepted hold-set count mismatch")
	}
	holds := basicHolds(3)
	holds[2] = schedule.NewBitset(7)
	if _, err := Run(g, holds, Options{}); err == nil {
		t.Fatal("accepted inconsistent hold-set capacity")
	}
}

// namedGraphs is the small-instance version of every named topology the
// public API exposes.
func namedGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"line":      graph.Path(7),
		"ring":      graph.Cycle(9),
		"star":      graph.Star(8),
		"complete":  graph.Complete(6),
		"mesh":      graph.Grid(3, 4),
		"torus":     graph.Torus(3, 3),
		"hypercube": graph.Hypercube(3),
		"petersen":  graph.Petersen(),
		"fig4":      graph.Fig4(),
	}
}

func buildCUD(t *testing.T, g *graph.Graph) *core.Result {
	t.Helper()
	tr, err := spantree.MinDepth(g)
	if err != nil {
		t.Fatal(err)
	}
	return core.GossipOnTree(tr)[core.ConcurrentUpDown]()
}

// TestRepairEverySingleDrop is the property test of the acceptance
// criteria: on every named topology, dropping any single delivery of the
// ConcurrentUpDown schedule (all of which are critical) is healed back to
// coverage 1.0, with per-iteration overhead bounded by the network
// diameter, and every synthesized repair batch re-validating against the
// model rules (Options.Validate).
func TestRepairEverySingleDrop(t *testing.T) {
	for name, g := range namedGraphs() {
		res := buildCUD(t, g)
		sweep, err := g.Sweep(graph.SweepAll)
		if err != nil {
			t.Fatal(err)
		}
		diameter := sweep.Diameter
		for tr, round := range res.Schedule.Rounds {
			for txIdx, tx := range round {
				for _, d := range tx.To {
					drop := fault.DropSet{{Round: tr, Tx: txIdx, Dest: d}: true}
					holds, dropped, err := fault.ExecuteTraced(g, res.Schedule, drop, nil, 0, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					if dropped != 1 {
						t.Fatalf("%s: drop (%d,%d,%d) hit %d deliveries", name, tr, txIdx, d, dropped)
					}
					out, err := Run(g, holds, Options{
						RoundOffset: res.Schedule.Time(),
						Validate:    true,
					})
					if err != nil {
						t.Fatalf("%s: drop (%d,%d,%d): %v", name, tr, txIdx, d, err)
					}
					if !out.Complete {
						t.Fatalf("%s: drop (%d,%d,%d) not repaired", name, tr, txIdx, d)
					}
					if out.Rounds > diameter*out.Iterations {
						t.Fatalf("%s: %d repair rounds in %d iterations exceeds diameter %d per iteration",
							name, out.Rounds, out.Iterations, diameter)
					}
					if out.Repaired != MissingPairs(holds) {
						t.Fatalf("%s: repaired %d of %d missing pairs", name, out.Repaired, MissingPairs(holds))
					}
				}
			}
		}
	}
}

// TestRepairUnderLossyRepairRounds: with the same Bernoulli loss striking
// the repair rounds too, the bounded retry loop still converges to full
// coverage on every named topology (seeded, so deterministic).
func TestRepairUnderLossyRepairRounds(t *testing.T) {
	for name, g := range namedGraphs() {
		res := buildCUD(t, g)
		inj := fault.LinkLoss{P: 0.01, Seed: 7}
		holds, _, err := fault.ExecuteTraced(g, res.Schedule, inj, nil, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(g, holds, Options{
			Injector:    inj,
			RoundOffset: res.Schedule.Time(),
			Validate:    true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Complete {
			t.Fatalf("%s: 1%% loss not repaired within %d iterations (deficit %d)",
				name, out.Iterations, MissingPairs(out.Holds))
		}
	}
}
