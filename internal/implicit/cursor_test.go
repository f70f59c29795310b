package implicit_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

func bfsLabeled(t *testing.T, g *graph.Graph, root int) *spantree.Labeled {
	t.Helper()
	tr, err := spantree.BFSTree(g, root)
	if err != nil {
		t.Fatal(err)
	}
	return spantree.Label(tr)
}

// sameRound compares a produced round against the oracle's, treating nil
// and empty alike.
func sameRound(got, want []schedule.Transmission) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

func oracleRound(s *schedule.Schedule, t int) []schedule.Transmission {
	if t < 0 || t >= len(s.Rounds) {
		return nil
	}
	return s.Rounds[t]
}

// assertCursorStream checks a fresh cursor's forward stream against the
// materialised builder, round for round.
func assertCursorStream(t *testing.T, name string, l *spantree.Labeled) {
	t.Helper()
	p := implicit.New(l)
	s := oracle(l)
	c := p.Cursor()
	if n, nmsg, rounds := c.Shape(); n != l.N() || nmsg != l.N() || rounds != s.Time() {
		t.Fatalf("%s: Shape() = (%d, %d, %d), want (%d, %d, %d)", name, n, nmsg, rounds, l.N(), l.N(), s.Time())
	}
	for r := 0; r < p.Rounds(); r++ {
		if got, want := c.RoundAt(r), oracleRound(s, r); !sameRound(got, want) {
			t.Fatalf("%s: cursor round %d:\ngot  %v\nwant %v", name, r, got, want)
		}
	}
}

// assertCallOrders checks RoundAppend on one plan, and RoundAt on one
// cursor, against the materialised builder under call orders that make
// the cursor step, seek forward, seek backward, and resolve D2 captures it
// did not witness: forward, reverse, a seeded permutation, and two scans
// interleaved so every call lands far from the previous one.
func assertCallOrders(t *testing.T, name string, l *spantree.Labeled, rng *rand.Rand) {
	t.Helper()
	s := oracle(l)
	rounds := s.Time()
	forward := make([]int, rounds)
	reverse := make([]int, rounds)
	for r := range forward {
		forward[r] = r
		reverse[r] = rounds - 1 - r
	}
	var interleaved []int
	for r := 0; r < rounds; r++ {
		interleaved = append(interleaved, r, rounds-1-r)
	}
	var strided []int
	for r := 0; r < rounds; r += 1 + rng.Intn(l.T.Height+4) {
		strided = append(strided, r, r) // a repeat, then a step or seek
	}
	orders := map[string][]int{
		"forward": forward, "reverse": reverse, "random": rng.Perm(rounds),
		"interleaved": interleaved, "strided": strided,
	}
	for order, ts := range orders {
		p := implicit.New(l)
		c := p.Cursor()
		var buf []schedule.Transmission
		for _, r := range ts {
			want := oracleRound(s, r)
			buf = p.RoundAppend(r, buf[:0])
			if !sameRound(buf, want) {
				t.Fatalf("%s/%s: RoundAppend(%d):\ngot  %v\nwant %v", name, order, r, buf, want)
			}
			if got := c.RoundAt(r); !sameRound(got, want) {
				t.Fatalf("%s/%s: RoundAt(%d):\ngot  %v\nwant %v", name, order, r, got, want)
			}
		}
		for _, r := range []int{-1, rounds, rounds + 5} {
			if got := p.RoundAppend(r, nil); len(got) != 0 {
				t.Fatalf("%s/%s: RoundAppend(%d) out of range returned %v", name, order, r, got)
			}
			if got := c.RoundAt(r); len(got) != 0 {
				t.Fatalf("%s/%s: RoundAt(%d) out of range returned %v", name, order, r, got)
			}
		}
	}
}

// TestCursorEqualsBuilder is the core equivalence proof: the cursor's
// rounds are identical to the materialising builder's, transmission for
// transmission, across shapes, sizes and roots.
func TestCursorEqualsBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	graphs := []*graph.Graph{
		graph.Path(2), graph.Path(17), graph.Star(20), graph.KAryTree(40, 3),
		graph.Caterpillar(6, 3), graph.RandomTree(rng, 77), graph.RandomTree(rng, 200),
		spantree.MustFromParents(graph.Fig5TreeParents()).Graph(),
	}
	for _, g := range graphs {
		for _, root := range []int{0, g.N() / 2, g.N() - 1} {
			assertCursorStream(t, g.String(), bfsLabeled(t, g, root))
		}
	}
}

// TestCursorExhaustiveSmallTrees covers every tree on up to six vertices
// under every root, and every call order up to five vertices.
func TestCursorExhaustiveSmallTrees(t *testing.T) {
	maxN := 6
	if testing.Short() {
		maxN = 5
	}
	rng := rand.New(rand.NewSource(55))
	for n := 2; n <= maxN; n++ {
		graph.AllTrees(n, func(g *graph.Graph) bool {
			for root := 0; root < n; root++ {
				l := bfsLabeled(t, g, root)
				assertCursorStream(t, g.String(), l)
				if n <= 5 {
					assertCallOrders(t, g.String(), l, rng)
				}
			}
			return true
		})
	}
}

// TestCursorCallOrders runs the call-order battery over the shapes the
// closed-form batteries cover: chains, stars and brooms up to 14 vertices,
// the Fig. 5 tree, the named topologies' minimum-depth trees, and seeded
// random trees and connected graphs.
func TestCursorCallOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for n := 2; n <= 14; n++ {
		assertCallOrders(t, "chain", spantree.Label(chain(n)), rng)
		assertCallOrders(t, "star", spantree.Label(star(n)), rng)
	}
	for handle := 1; handle <= 5; handle++ {
		for brush := 1; brush <= 5; brush++ {
			n := handle + brush
			parent := make([]int, n)
			parent[0] = -1
			for v := 1; v < n; v++ {
				parent[v] = min(v-1, handle-1)
			}
			assertCallOrders(t, "broom", spantree.Label(spantree.MustFromParents(parent)), rng)
		}
	}
	assertCallOrders(t, "fig5", spantree.Label(spantree.MustFromParents(graph.Fig5TreeParents())), rng)
	named := map[string]*graph.Graph{
		"fig4": graph.Fig4(), "petersen": graph.Petersen(), "path16": graph.Path(16),
		"cycle17": graph.Cycle(17), "cycle64": graph.Cycle(64), "star16": graph.Star(16),
		"complete9": graph.Complete(9), "grid5x6": graph.Grid(5, 6), "hypercube": graph.Hypercube(4),
	}
	for trial := 0; trial < 12; trial++ {
		named["random"+string(rune('a'+trial))] = graph.RandomConnected(rng, 2+rng.Intn(70), rng.Float64()*0.3)
	}
	for name, g := range named {
		tree, err := spantree.MinDepth(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertCallOrders(t, name, spantree.Label(tree), rng)
	}
	for trial := 0; trial < 20; trial++ {
		assertCallOrders(t, "random-tree", spantree.Label(randomTree(rng, 2+rng.Intn(90))), rng)
	}
}

// TestCursorVerifyInvariants checks the count verifier's aggregate on
// random trees: n + height rounds and n(n-1) deliveries.
func TestCursorVerifyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{2, 10, 100, 500} {
		l := bfsLabeled(t, graph.RandomTree(rng, n), rng.Intn(n))
		sum, err := implicit.New(l).Verify()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if sum.Rounds != n+l.T.Height {
			t.Fatalf("n=%d: rounds %d", n, sum.Rounds)
		}
		if sum.Deliveries != n*(n-1) {
			t.Fatalf("n=%d: deliveries %d, want %d", n, sum.Deliveries, n*(n-1))
		}
	}
}

// TestCursorLargeScale exercises the point of the cursor: an 8,000-vertex
// tree whose materialised schedule would hold ~6x10^7 delivery entries is
// streamed and count-verified with O(n) state.
func TestCursorLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale stream skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(53))
	n := 8000
	l := bfsLabeled(t, graph.RandomTree(rng, n), 0)
	sum, err := implicit.New(l).Verify()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Deliveries != n*(n-1) {
		t.Fatalf("deliveries %d, want %d", sum.Deliveries, n*(n-1))
	}
	if sum.Rounds != n+l.T.Height {
		t.Fatalf("rounds %d, want %d", sum.Rounds, n+l.T.Height)
	}
}

func TestCursorTrivial(t *testing.T) {
	p := implicit.New(spantree.Label(spantree.MustFromParents([]int{-1})))
	c := p.Cursor()
	if _, _, rounds := c.Shape(); rounds != 0 {
		t.Fatalf("n=1: %d rounds", rounds)
	}
	if got := c.RoundAt(0); len(got) != 0 {
		t.Fatalf("n=1: produced a round %v", got)
	}
	if sum, err := p.Verify(); err != nil || sum.Rounds != 0 {
		t.Fatalf("n=1 verify: %v %+v", err, sum)
	}
}

// TestCursorScheduleIsValidOnTree feeds the cursor, as a round source,
// through the strict quadratic validator.
func TestCursorScheduleIsValidOnTree(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	l := bfsLabeled(t, graph.RandomTree(rng, 60), 3)
	p := implicit.New(l)
	g := treeInOriginalIDs(l).Graph()
	if _, err := schedule.Run(g, p.Cursor(), schedule.Options{RequireUseful: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := schedule.CheckGossip(g, p.Cursor()); err != nil {
		t.Fatal(err)
	}
}

// TestRoundAppendConcurrent shares one plan between goroutines that page
// its rounds in different orders, so the cursor slot is contended; run
// under -race. Every round must still match the builder.
func TestRoundAppendConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	tree, err := spantree.MinDepth(graph.Cycle(96))
	if err != nil {
		t.Fatal(err)
	}
	l := spantree.Label(tree)
	p := implicit.New(l)
	s := oracle(l)
	rounds := p.Rounds()
	var orders [][]int
	for g := 0; g < 8; g++ {
		ts := rng.Perm(rounds)
		if g%2 == 0 {
			for r := range ts {
				ts[r] = r // sequential scanners resume the shared cursor
			}
		}
		orders = append(orders, ts)
	}
	var wg sync.WaitGroup
	for g, ts := range orders {
		wg.Add(1)
		go func(g int, ts []int) {
			defer wg.Done()
			var buf []schedule.Transmission
			for _, r := range ts {
				buf = p.RoundAppend(r, buf[:0])
				if !sameRound(buf, oracleRound(s, r)) {
					t.Errorf("goroutine %d: round %d diverges from the builder", g, r)
					return
				}
			}
		}(g, ts)
	}
	wg.Wait()
}
