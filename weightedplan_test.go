package multigossip

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestWeightedPlanRingMixedCounts exercises the full public surface of the
// Section 4 weighted plan on a ring with uneven message counts.
func TestWeightedPlanRingMixedCounts(t *testing.T) {
	nw := Ring(6)
	counts := []int{1, 2, 1, 3, 1, 1}
	plan, err := nw.PlanWeightedGossip(counts)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if plan.TotalMessages() != total {
		t.Errorf("TotalMessages = %d, want %d", plan.TotalMessages(), total)
	}
	// Theorem 1 on the chain expansion: N + R rounds for N messages and
	// expanded radius R >= 1, and contraction can only shorten the schedule.
	if plan.ExpandedRounds() <= total {
		t.Errorf("ExpandedRounds = %d, want > TotalMessages %d", plan.ExpandedRounds(), total)
	}
	if plan.Rounds() < 1 || plan.Rounds() > plan.ExpandedRounds() {
		t.Errorf("Rounds = %d out of [1, ExpandedRounds %d]", plan.Rounds(), plan.ExpandedRounds())
	}
	// Message ownership must reproduce the counts vector exactly.
	perOwner := make([]int, nw.Processors())
	for m := 0; m < total; m++ {
		owner := plan.MessageOwner(m)
		if owner < 0 || owner >= nw.Processors() {
			t.Fatalf("MessageOwner(%d) = %d out of range", m, owner)
		}
		perOwner[owner]++
	}
	for v, c := range counts {
		if perOwner[v] != c {
			t.Errorf("processor %d owns %d messages, want %d", v, perOwner[v], c)
		}
	}
	// The contracted rounds must respect the model shape: one send per
	// sender per round, ring links only, senders distinct from receivers.
	deliveries := 0
	for r := 0; r < plan.Rounds(); r++ {
		sent := map[int]bool{}
		for _, tx := range plan.Round(r) {
			if sent[tx.From] {
				t.Fatalf("round %d: processor %d multicasts twice", r, tx.From)
			}
			sent[tx.From] = true
			if tx.Message < 0 || tx.Message >= total {
				t.Fatalf("round %d: message %d out of range", r, tx.Message)
			}
			for _, d := range tx.To {
				if d == tx.From {
					t.Fatalf("round %d: self-delivery at %d", r, d)
				}
				if !nw.HasLink(tx.From, d) {
					t.Fatalf("round %d: %d->%d is not a ring link", r, tx.From, d)
				}
				deliveries++
			}
		}
	}
	// Every processor must learn every message it does not own: at least
	// sum over v of (total - counts[v]) deliveries.
	minDeliveries := 0
	for _, c := range counts {
		minDeliveries += total - c
	}
	if deliveries < minDeliveries {
		t.Errorf("%d deliveries over all rounds, want >= %d", deliveries, minDeliveries)
	}
}

// TestWeightedPlanUnitCountsMatchesTheorem pins the degenerate case: all
// counts 1 makes the expansion the identity, so the expanded schedule is
// the plain ConcurrentUpDown run at exactly n + r rounds.
func TestWeightedPlanUnitCountsMatchesTheorem(t *testing.T) {
	for _, tc := range []struct {
		name string
		nw   *Network
	}{
		{"ring5", Ring(5)},
		{"line6", Line(6)},
		{"star7", Star(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.nw.Processors()
			counts := make([]int, n)
			for i := range counts {
				counts[i] = 1
			}
			plan, err := tc.nw.PlanWeightedGossip(counts)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if want := n + tc.nw.Radius(); plan.ExpandedRounds() != want {
				t.Errorf("ExpandedRounds = %d, want n + r = %d", plan.ExpandedRounds(), want)
			}
			if plan.TotalMessages() != n {
				t.Errorf("TotalMessages = %d, want %d", plan.TotalMessages(), n)
			}
			for m := 0; m < n; m++ {
				if plan.MessageOwner(m) == -1 {
					t.Errorf("message %d unowned", m)
				}
			}
		})
	}
}

// TestWeightedPlanErrors checks every input validation of the public entry
// point.
func TestWeightedPlanErrors(t *testing.T) {
	cases := []struct {
		name   string
		nw     *Network
		counts []int
		want   string
	}{
		{"empty network", NewNetwork(0), nil, "empty"},
		{"counts length mismatch", Ring(4), []int{1, 1}, "counts"},
		{"zero count", Ring(4), []int{1, 0, 1, 1}, "count"},
		{"negative count", Ring(4), []int{1, 1, -2, 1}, "count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.nw.PlanWeightedGossip(tc.counts)
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWeightedPlanMatchesWeightedAlgorithm: with unit counts the weighted
// front end and a Plan built with WithAlgorithm(Weighted) run one fault
// pipeline, so under every fault option, with and without repair, they
// return deep-equal FaultReports and emit the same observer events.
func TestWeightedPlanMatchesWeightedAlgorithm(t *testing.T) {
	nets := map[string]*Network{
		"ring":   Ring(12),
		"mesh":   Mesh(4, 5),
		"random": RandomNetwork(rand.New(rand.NewSource(40)), 40, 0.1),
	}
	for name, nw := range nets {
		plan, err := nw.PlanGossip(WithAlgorithm(Weighted))
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, nw.Processors())
		for v := range counts {
			counts[v] = 1
		}
		wp, err := nw.PlanWeightedGossip(counts)
		if err != nil {
			t.Fatal(err)
		}
		tx := plan.Round(2)[0]
		relay := plan.Round(plan.Rounds() / 2)[0].From
		faults := map[string][]FaultOption{
			"none":       nil,
			"dropped":    {WithDroppedDelivery(2, 0, tx.To[0])},
			"loss":       {WithLinkLoss(0.05, 11)},
			"window":     {WithCrashWindow(relay, 2, 6)},
			"crash-stop": {WithCrashStop(relay, 3)},
			"dead-link":  {WithDeadLink(tx.From, tx.To[0])},
		}
		for fname, opts := range faults {
			for _, repair := range []bool{true, false} {
				label := fmt.Sprintf("%s/%s/repair=%v", name, fname, repair)
				run := func(execute func(...FaultOption) (FaultReport, error)) (FaultReport, []string) {
					var log eventLog
					o := append(append([]FaultOption(nil), opts...), WithObserver(&log))
					if !repair {
						o = append(o, WithoutRepair())
					}
					rep, err := execute(o...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return rep, log.events
				}
				got, gotEvents := run(wp.ExecuteWithFaults)
				want, wantEvents := run(plan.ExecuteWithFaults)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: WeightedPlan report differs from the Weighted plan's\ngot  %+v\nwant %+v", label, got, want)
				}
				if !reflect.DeepEqual(gotEvents, wantEvents) {
					t.Fatalf("%s: WeightedPlan emitted %d events, the Weighted plan %d, or a different sequence", label, len(gotEvents), len(wantEvents))
				}
			}
		}
	}
}
