package multigossip

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"multigossip/internal/core"
)

// eventLog is a RoundObserver recording every event in order, so two
// executions can be compared event for event.
type eventLog struct{ events []string }

func (e *eventLog) add(format string, args ...any) {
	e.events = append(e.events, fmt.Sprintf(format, args...))
}
func (e *eventLog) BeginPhase(phase, detail string) { e.add("begin %s %s", phase, detail) }
func (e *eventLog) EndPhase(phase string)           { e.add("end %s", phase) }
func (e *eventLog) BeginRound(r int)                { e.add("round %d", r) }
func (e *eventLog) EndRound(r int, s RoundStats)    { e.add("end round %d %+v", r, s) }
func (e *eventLog) Delivery(r, from, to, msg int, o DeliveryOutcome) {
	e.add("delivery %d %d->%d m%d %v", r, from, to, msg, o)
}
func (e *eventLog) RepairIteration(iter int, s RepairStats) { e.add("repair %d %+v", iter, s) }
func (e *eventLog) Quarantine(iter int, links [][2]int, procs []int) {
	e.add("quarantine %d %v %v", iter, links, procs)
}

// materialisedTwin is the oracle for an implicit-backed plan's replays: the
// same plan carrying the core builder's materialised schedule and no
// compact form, so its Verify, ExecuteWithFaults and ExecuteTraced run the
// executors over the resident schedule.
func materialisedTwin(p *Plan) *Plan {
	l := p.imp.Labeled()
	return &Plan{
		network: p.network, algo: p.algo, radius: p.radius, sweep: p.sweep,
		sched: core.RemapToOriginal(core.BuildConcurrentUpDown(l), l),
	}
}

// TestReplayMatchesMaterialisedOracle holds the streamed replays of
// implicit-backed plans to the materialised oracle: ExecuteWithFaults
// returns a deep-equal FaultReport (progress curve, drops, unreachable
// pairs and quarantine lists included) and emits the same observer event
// sequence under every fault option, with and without repair; ExecuteTraced
// and Verify agree too; and none of it materialises the plan.
func TestReplayMatchesMaterialisedOracle(t *testing.T) {
	nets := map[string]*Network{
		"ring":   Ring(14),
		"mesh":   Mesh(4, 5),
		"star":   Star(9),
		"line":   Line(11),
		"random": RandomNetwork(rand.New(rand.NewSource(3)), 30, 0.15),
	}
	for name, nw := range nets {
		plan, err := nw.PlanGossip()
		if err != nil {
			t.Fatal(err)
		}
		twin := materialisedTwin(plan)
		// Fault coordinates taken from the schedule itself: a real
		// delivery, a tree link, and a relaying processor.
		tx := plan.Round(2)[0]
		relay := plan.Round(plan.Rounds() / 2)[0].From
		faults := map[string][]FaultOption{
			"none":       nil,
			"dropped":    {WithDroppedDelivery(2, 0, tx.To[0])},
			"loss":       {WithLinkLoss(0.1, 7)},
			"window":     {WithCrashWindow(relay, 2, 6)},
			"crash-stop": {WithCrashStop(relay, 3)},
			"dead-link":  {WithDeadLink(tx.From, tx.To[0])},
			"combined":   {WithLinkLoss(0.05, 9), WithCrashWindow(relay, 1, 4), WithDroppedDelivery(2, 0, tx.To[0])},
		}
		for fname, opts := range faults {
			for _, repair := range []bool{true, false} {
				label := fmt.Sprintf("%s/%s/repair=%v", name, fname, repair)
				run := func(p *Plan) (FaultReport, []string) {
					var log eventLog
					o := append(append([]FaultOption(nil), opts...), WithObserver(&log))
					if !repair {
						o = append(o, WithoutRepair())
					}
					rep, err := p.ExecuteWithFaults(o...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return rep, log.events
				}
				got, gotEvents := run(plan)
				want, wantEvents := run(twin)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: report differs from the materialised oracle\ngot  %+v\nwant %+v", label, got, want)
				}
				if !reflect.DeepEqual(gotEvents, wantEvents) {
					t.Fatalf("%s: observer saw %d events, oracle %d, or a different sequence", label, len(gotEvents), len(wantEvents))
				}
			}
		}

		var gotLog, wantLog eventLog
		got, err := plan.ExecuteTraced(&gotLog)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.ExecuteTraced(&wantLog)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotLog.events, wantLog.events) {
			t.Fatalf("%s: ExecuteTraced differs from the materialised oracle", name)
		}
		if err := plan.Verify(); err != nil {
			t.Fatalf("%s: Verify: %v", name, err)
		}
		if plan.sched != nil {
			t.Fatalf("%s: a replay materialised the schedule", name)
		}
	}
}

// TestExecuteWithFaultsStreamsInBoundedMemory pins what streaming saves: a
// lossy execution of a random n = 2048 plan allocates under 8 MB in total
// (about 1.6 MB), where the same execution over a materialised schedule
// allocates about 950 MB. The hold sets (n² bits, 512 KiB here) are the
// floor.
func TestExecuteWithFaultsStreamsInBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 2048 planning skipped in -short mode")
	}
	nw := RandomNetwork(rand.New(rand.NewSource(2048)), 2048, 10.0/2048)
	plan, err := nw.PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := plan.ExecuteWithFaults(WithLinkLoss(0.01, 11), WithoutRepair())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 || rep.ScheduleRounds != plan.Rounds() {
		t.Fatalf("implausible report: %d dropped over %d rounds", rep.Dropped, rep.ScheduleRounds)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("ExecuteWithFaults allocated %d bytes", got)
	if got > 8<<20 {
		t.Fatalf("ExecuteWithFaults allocated %d bytes, want under 8 MiB", got)
	}
	if plan.sched != nil {
		t.Fatal("ExecuteWithFaults materialised the schedule")
	}
}
