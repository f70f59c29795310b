package schedule

import (
	"strings"
	"testing"

	"multigossip/internal/graph"
	"multigossip/internal/spantree"
)

// ringSchedule builds the paper's Fig. 1 optimal schedule on C_n: in round
// t every processor sends to its clockwise neighbour the message it
// received in round t-1 (its own in round 0). Total time n-1.
func ringSchedule(n int) *Schedule {
	s := New(n)
	for t := 0; t < n-1; t++ {
		for p := 0; p < n; p++ {
			msg := ((p-t)%n + n) % n // message that started t hops counter-clockwise
			s.AddSend(t, msg, p, (p+1)%n)
		}
	}
	return s
}

func TestRingScheduleOptimal(t *testing.T) {
	for _, n := range []int{3, 4, 8, 17} {
		g := graph.Cycle(n)
		s := ringSchedule(n)
		res, err := CheckGossip(g, s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if s.Time() != n-1 {
			t.Fatalf("n=%d: time %d, want %d", n, s.Time(), n-1)
		}
		if res.CompleteAt != n-1 {
			t.Fatalf("n=%d: CompleteAt %d, want %d", n, res.CompleteAt, n-1)
		}
		if res.WastedDeliveries != 0 {
			t.Fatalf("n=%d: %d wasted deliveries", n, res.WastedDeliveries)
		}
	}
}

func TestAddSendGrowsAndSorts(t *testing.T) {
	s := New(4)
	s.AddSend(2, 1, 0, 3, 1, 2)
	if s.Time() != 3 {
		t.Fatalf("Time = %d, want 3", s.Time())
	}
	tx := s.Rounds[2][0]
	if tx.To[0] != 1 || tx.To[1] != 2 || tx.To[2] != 3 {
		t.Fatalf("destinations not sorted: %v", tx.To)
	}
}

// TestSizeBytes pins the cache's schedule charge: three words per round,
// five per multicast, one per destination.
func TestSizeBytes(t *testing.T) {
	s := New(4)
	s.AddSend(0, 0, 0, 1, 2)
	s.AddSend(0, 3, 3, 0)
	s.AddSend(2, 1, 1, 0)
	// 3 rounds, 3 multicasts, 4 destinations.
	if got, want := s.SizeBytes(), int64(8*(3*3+3*5+4)); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestAddSendEmptyDestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddSend with no destinations did not panic")
		}
	}()
	New(3).AddSend(0, 0, 0)
}

func TestReceiveBeforeSendSemantics(t *testing.T) {
	// P3: 0-1-2. Message 0 sent 0->1 at round 0 arrives at time 1 and may
	// be forwarded by 1 at round 1.
	g := graph.Path(3)
	s := New(3)
	s.AddSend(0, 0, 0, 1)
	s.AddSend(1, 0, 1, 2)
	s.AddSend(1, 1, 0, 1) // hmm-free filler: 0 sends its own msg? no: msg 1 not held by 0
	if _, err := Run(g, s, Options{}); err == nil {
		t.Fatal("validator accepted a send of an unheld message")
	}
	// Remove the bad send; the forward of a just-received message is legal.
	s = New(3)
	s.AddSend(0, 0, 0, 1)
	s.AddSend(1, 0, 1, 2)
	if _, err := Run(g, s, Options{}); err != nil {
		t.Fatalf("receive-before-send forward rejected: %v", err)
	}
	// Forwarding one round too early must fail.
	s = New(3)
	s.AddSend(0, 0, 0, 1)
	s.AddSend(0, 0, 1, 2)
	if _, err := Run(g, s, Options{}); err == nil {
		t.Fatal("validator accepted forwarding before arrival")
	}
}

func TestValidatorRejections(t *testing.T) {
	g := graph.Cycle(5)
	base := ringSchedule(5)
	if _, err := CheckGossip(g, base); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}

	corrupt := func(name string, mutate func(*Schedule), wantSub string) {
		s := base.Clone()
		mutate(s)
		_, err := Run(g, s, Options{})
		if err == nil {
			t.Errorf("%s: corruption not detected", name)
			return
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}

	corrupt("doubleSend", func(s *Schedule) {
		s.AddSend(0, 0, 0, 4) // processor 0 already sends in round 0
	}, "sends twice")
	corrupt("phantomEdge", func(s *Schedule) {
		s.Rounds[0][0].To = []int{2} // 0-2 is not a ring edge
	}, "no link")
	corrupt("unheldMessage", func(s *Schedule) {
		s.Rounds[0][0].Msg = 3 // processor 0 does not hold message 3 at t=0
	}, "does not hold")
	corrupt("selfSend", func(s *Schedule) {
		s.Rounds[0][0].To = []int{0}
	}, "sends to itself")
	corrupt("badSender", func(s *Schedule) {
		s.Rounds[0][0].From = 9
	}, "out of range")
	corrupt("badMessage", func(s *Schedule) {
		s.Rounds[0][0].Msg = 17
	}, "out of range")
	corrupt("badDest", func(s *Schedule) {
		s.Rounds[0][0].To = []int{-2}
	}, "out of range")
}

func TestDoubleReceiveRejected(t *testing.T) {
	g := graph.Complete(3)
	s := New(3)
	s.AddSend(0, 0, 0, 2)
	s.AddSend(0, 1, 1, 2) // processor 2 would receive two messages at time 1
	if _, err := Run(g, s, Options{}); err == nil || !strings.Contains(err.Error(), "receives two") {
		t.Fatalf("double receive not detected: %v", err)
	}
}

func TestIncompleteGossipDetected(t *testing.T) {
	g := graph.Cycle(5)
	s := ringSchedule(5)
	s.Rounds = s.Rounds[:len(s.Rounds)-1] // truncate the last round
	if _, err := CheckGossip(g, s); err == nil || !strings.Contains(err.Error(), "missing messages") {
		t.Fatalf("truncation not detected: %v", err)
	}
}

func TestWastedDeliveriesCountedAndRejectedWhenStrict(t *testing.T) {
	g := graph.Path(2)
	s := New(2)
	s.AddSend(0, 0, 0, 1)
	s.AddSend(1, 0, 0, 1) // resend: processor 1 already holds message 0
	res, err := Run(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WastedDeliveries != 1 {
		t.Fatalf("WastedDeliveries = %d, want 1", res.WastedDeliveries)
	}
	if _, err := Run(g, s, Options{RequireUseful: true}); err == nil {
		t.Fatal("strict mode accepted a wasted delivery")
	}
}

func TestCustomInitialHolds(t *testing.T) {
	// Two processors, three messages: 0 holds {0,1}, 1 holds {2}.
	g := graph.Path(2)
	s := NewWithMessages(2, 3)
	init := []*Bitset{NewBitset(3), NewBitset(3)}
	init[0].Set(0)
	init[0].Set(1)
	init[1].Set(2)
	s.AddSend(0, 0, 0, 1)
	s.AddSend(1, 1, 0, 1)
	s.AddSend(1, 2, 1, 0)
	res, err := Run(g, s, Options{Initial: init})
	if err != nil {
		t.Fatal(err)
	}
	for p, h := range res.Holds {
		if !h.Full() {
			t.Fatalf("processor %d missing %v", p, h.Missing())
		}
	}
	if res.CompleteAt != 2 {
		t.Fatalf("CompleteAt = %d, want 2", res.CompleteAt)
	}
	// Mismatched sizes must error.
	if _, err := Run(g, s, Options{Initial: init[:1]}); err == nil {
		t.Fatal("accepted wrong initial count")
	}
	bad := []*Bitset{NewBitset(2), NewBitset(2)}
	if _, err := Run(g, s, Options{Initial: bad}); err == nil {
		t.Fatal("accepted wrong initial bitset size")
	}
}

func TestDefaultInitialNeedsSquare(t *testing.T) {
	g := graph.Path(2)
	s := NewWithMessages(2, 3)
	if _, err := Run(g, s, Options{}); err == nil {
		t.Fatal("default initial holds accepted NMsg != N")
	}
}

func TestGraphSizeMismatch(t *testing.T) {
	if _, err := Run(graph.Path(3), New(4), Options{}); err == nil {
		t.Fatal("accepted mismatched graph and schedule sizes")
	}
}

func TestCloneAndEqualAndNormalize(t *testing.T) {
	s := ringSchedule(4)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Rounds[0][0].Msg = 3
	if s.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	// Normalize sorts by sender.
	a := New(3)
	a.AddSend(0, 2, 2, 1)
	a.AddSend(0, 0, 0, 1)
	b := New(3)
	b.AddSend(0, 0, 0, 1)
	b.AddSend(0, 2, 2, 1)
	a.Normalize()
	b.Normalize()
	if !a.Equal(b) {
		t.Fatal("normalized schedules differ")
	}
}

func TestCountsAndStats(t *testing.T) {
	s := New(4)
	s.AddSend(0, 0, 0, 1, 2, 3)
	s.AddSend(1, 1, 1, 0)
	if s.Transmissions() != 2 || s.Deliveries() != 4 {
		t.Fatalf("tx=%d deliveries=%d", s.Transmissions(), s.Deliveries())
	}
	st := Measure(s)
	if st.Time != 2 || st.MaxFanout != 3 || st.AvgFanout != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.RecvUtilization != 0.5 { // 4 deliveries over 4*2 slots
		t.Fatalf("RecvUtilization = %v, want 0.5", st.RecvUtilization)
	}
	if !strings.Contains(st.String(), "time=2") {
		t.Fatalf("Stats.String missing time: %s", st)
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 || b.Count() != 0 || b.Full() {
		t.Fatal("fresh bitset wrong")
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 3 {
		t.Fatal("Clear failed")
	}
	c := b.Clone()
	c.Set(1)
	if b.Has(1) {
		t.Fatal("clone aliased")
	}
	for i := 0; i < 130; i++ {
		b.Set(i)
	}
	if !b.Full() || len(b.Missing()) != 0 {
		t.Fatal("Full/Missing wrong")
	}
	b.Clear(100)
	if m := b.Missing(); len(m) != 1 || m[0] != 100 {
		t.Fatalf("Missing = %v", m)
	}
}

func TestVertexView(t *testing.T) {
	// Star tree rooted at 0 with children 1,2. Schedule: 1 sends m1 up at
	// round 0; 0 multicasts m1 to 2 at round 1; 2 sends m2 up at round 1;
	// 0 multicasts m2 to 1 at round 2; 0 sends m0 to both at round 3.
	tr := spantree.MustFromParents([]int{-1, 0, 0})
	g := tr.Graph()
	s := New(3)
	s.AddSend(0, 1, 1, 0)
	s.AddSend(1, 1, 0, 2)
	s.AddSend(1, 2, 2, 0)
	s.AddSend(2, 2, 0, 1)
	s.AddSend(3, 0, 0, 1, 2)
	if _, err := CheckGossip(g, s); err != nil {
		t.Fatal(err)
	}
	root := VertexView(s, tr, 0)
	if root.RecvChild[1] != 1 || root.RecvChild[2] != 2 {
		t.Fatalf("root RecvChild = %v", root.RecvChild)
	}
	if root.SendChild[1] != 1 || root.SendChild[2] != 2 || root.SendChild[3] != 0 {
		t.Fatalf("root SendChild = %v", root.SendChild)
	}
	leaf := VertexView(s, tr, 1)
	if leaf.SendParent[0] != 1 {
		t.Fatalf("leaf SendParent = %v", leaf.SendParent)
	}
	if leaf.RecvParent[3] != 2 || leaf.RecvParent[4] != 0 {
		t.Fatalf("leaf RecvParent = %v", leaf.RecvParent)
	}
	if leaf.RecvChild[1] != NoMessage {
		t.Fatalf("leaf RecvChild should be empty: %v", leaf.RecvChild)
	}
}

func TestScheduleString(t *testing.T) {
	s := New(2)
	s.AddSend(0, 0, 0, 1)
	out := s.String()
	if !strings.Contains(out, "t=0:") || !strings.Contains(out, "0->[1]:m0") {
		t.Fatalf("String output unexpected:\n%s", out)
	}
}

func TestBitsetCountAndNot(t *testing.T) {
	a := NewBitset(130)
	b := NewBitset(130)
	for _, i := range []int{0, 5, 63, 64, 100, 129} {
		a.Set(i)
	}
	for _, i := range []int{5, 64, 129} {
		b.Set(i)
	}
	if got := a.CountAndNot(b); got != 3 {
		t.Fatalf("CountAndNot = %d, want 3 (bits 0, 63, 100)", got)
	}
	if got := b.CountAndNot(a); got != 0 {
		t.Fatalf("b \\ a = %d, want 0 (b is a subset)", got)
	}
	if got := a.CountAndNot(NewBitset(130)); got != a.Count() {
		t.Fatalf("a \\ empty = %d, want %d", got, a.Count())
	}
}
