package implicit

import (
	"fmt"
	"math/rand"
	"testing"

	"multigossip/internal/graph"
	"multigossip/internal/spantree"
)

// downSendAt evaluates Propagate-Down (D1-D3) at vertex v and time t: the
// message v multicasts toward its children, or -1. Leaves never send down.
//
// The b-message schedule (D3) is local: message m in [i..j] goes out at
// time m - k, except that on the leftmost DFS path (i == k) the s-message
// i is relocated to time j - k + 1 — at the root this is the paper's
// "message 0 at time n". o-message forwarding (D1/D2) recurses on what the
// parent sent one round earlier; arrivals at the D3-busy slots i-k and
// i-k+1 are held and re-emitted at j-k+1 and j-k+2 in arrival order.
func (p *Plan) downSendAt(v int32, t int) int32 {
	if t < 0 || p.isLeaf(v) {
		return -1
	}
	i, j, k := v, p.hi[v], p.level[v]
	bLo, bHi := int(i-k), int(j-k)
	if t >= bLo && t <= bHi {
		m := int32(t) + k
		if m != i || i != k {
			return m
		}
		// i == k at t == i-k: the s-message is relocated below; nothing
		// else can occupy this slot (the paper guarantees no o-message
		// arrives while the leftmost path is in its opening round).
		return -1
	}
	if i == k {
		if t == bHi+1 {
			return i // relocated s-message (root: message 0 at time n)
		}
		// Leftmost-path vertices never capture arrivals, so everything
		// else is a plain pass-through forward.
		return p.arrivalAt(v, t)
	}
	if in := p.arrivalAt(v, t); in != -1 {
		// D1: an o-message received at time t is forwarded at time t. The
		// capture slots i-k and i-k+1 lie inside the b-region and were
		// returned above, so any arrival seen here forwards immediately.
		return in
	}
	if t == bHi+1 || t == bHi+2 {
		// D2: release the messages captured at i-k and i-k+1, in arrival
		// order, at j-k+1 and j-k+2.
		first := p.arrivalAt(v, bLo)
		second := p.arrivalAt(v, bLo+1)
		queue := [2]int32{-1, -1}
		qn := 0
		if first != -1 {
			queue[qn] = first
			qn++
		}
		if second != -1 {
			queue[qn] = second
			qn++
		}
		return queue[t-(bHi+1)]
	}
	return -1
}

// arrivalAt returns the o-message v receives from its parent at time t, or
// -1: the parent's down-send of round t-1, unless that message belongs to
// v's own subtree (D3 excludes the owner child from the destination set).
func (p *Plan) arrivalAt(v int32, t int) int32 {
	par := p.parent[v]
	if par < 0 || t <= 0 {
		return -1
	}
	m := p.downSendAt(par, t-1)
	if m == -1 || (m >= v && m <= p.hi[v]) {
		return -1
	}
	return m
}

// referenceShapes returns the trees the diagonal identity is held to: the
// named shapes under several roots, then 40 seeded random trees and 40
// minimum-depth trees of seeded random connected graphs.
func referenceShapes(t *testing.T) map[string]*spantree.Labeled {
	t.Helper()
	out := map[string]*spantree.Labeled{}
	add := func(name string, g *graph.Graph, roots ...int) {
		for _, r := range roots {
			tr, err := spantree.BFSTree(g, r)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/root%d/#%d", name, r, len(out))] = spantree.Label(tr)
		}
	}
	add("cycle17", graph.Cycle(17), 0, 5)
	add("cycle64", graph.Cycle(64), 0)
	add("path33", graph.Path(33), 0, 16, 32)
	add("grid6x7", graph.Grid(6, 7), 0, 20)
	add("fig4", graph.Fig4(), 0, 3)
	add("petersen", graph.Petersen(), 0)
	add("star9", graph.Star(9), 0, 4)
	add("caterpillar", graph.Caterpillar(7, 3), 0, 10)
	add("hypercube4", graph.Hypercube(4), 0)
	add("fig5", spantree.MustFromParents(graph.Fig5TreeParents()).Graph(), 0)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		g := graph.RandomTree(rng, 2+rng.Intn(90))
		add("random-tree", g, rng.Intn(g.N()))
	}
	for trial := 0; trial < 40; trial++ {
		g := graph.RandomConnected(rng, 2+rng.Intn(90), rng.Float64()*0.2)
		tr, err := spantree.MinDepth(g)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("random-graph/#%d", trial)] = spantree.Label(tr)
	}
	if len(out) != 17+80 {
		t.Fatalf("%d shapes, want 97", len(out))
	}
	return out
}

// TestDiagonalSeekMatchesReference holds the diagonal evaluation to the
// ancestor-walking recursion at every (vertex, time), t in [-1, rounds+2]:
// a seek's down-sends for every vertex, and for every vertex the stack
// that Timetable uses, both its own down-sends and what it hears from its
// parent. The release table must equal the recursion at the release slots.
func TestDiagonalSeekMatchesReference(t *testing.T) {
	for name, l := range referenceShapes(t) {
		p := New(l)
		c := p.Cursor()
		for v := int32(0); v < int32(p.n); v++ {
			if p.isLeaf(v) || v == p.level[v] {
				continue
			}
			bHi := int(p.hi[v] - p.level[v])
			for slot := 0; slot < 2; slot++ {
				if got, want := p.released(v, int32(slot)), p.downSendAt(v, bHi+1+slot); got != want {
					t.Fatalf("%s: release %d of vertex %d = %d, want %d", name, slot, v, got, want)
				}
			}
		}
		for r := -1; r <= p.Rounds()+2; r++ {
			c.seek(r)
			for v := int32(0); v < int32(p.n); v++ {
				if got, want := c.down[v], p.downSendAt(v, r); got != want {
					t.Fatalf("%s: seek(%d) vertex %d sends %d, want %d", name, r, v, got, want)
				}
			}
		}
		for v := int32(0); v < int32(p.n); v++ {
			s, x := p.stackOf(v), int(p.level[v])+1
			for r := -1; r <= p.Rounds()+2; r++ {
				sigma := int32(r) - p.level[v]
				if got, want := p.sendOn(s, x-1, x, sigma), p.arrivalAt(v, r); got != want {
					t.Fatalf("%s: vertex %d hears %d at %d, want %d", name, v, got, r, want)
				}
				if p.isLeaf(v) {
					continue
				}
				if got, want := p.sendOn(s, x, x, sigma), p.downSendAt(v, r); got != want {
					t.Fatalf("%s: vertex %d stack send %d at %d, want %d", name, v, got, r, want)
				}
			}
		}
	}
}

// TestDiagonalIntervalsAreTight widens every vertex's σ-interval by one
// at either end in turn — the vertex then decides its own down-send one
// diagonal early (the b-message formula one slot before i-k) or one late
// (the relocated s-message again on the leftmost path, nothing released
// elsewhere) — and requires the recursion to disagree somewhere: the
// identity depends on the exact bounds.
func TestDiagonalIntervalsAreTight(t *testing.T) {
	shapes := referenceShapes(t)
	for _, end := range []string{"lo", "hi"} {
		broke := false
		for _, l := range shapes {
			p := New(l)
			s := newStack(p.height)
			for v := int32(0); v < int32(p.n) && !broke; v++ {
				if p.isLeaf(v) {
					continue
				}
				x := int(p.level[v]) + 1
				p.push(s, x, v)
				lo, hi := p.interval(s, x)
				sigma, widened := lo-1, lo-1+2*p.level[v]
				if end == "hi" {
					sigma, widened = hi+1, -1
					if v == p.level[v] {
						widened = v
					}
				}
				broke = widened != p.downSendAt(v, int(sigma+p.level[v]))
			}
		}
		if !broke {
			t.Fatalf("widening every interval's %s end by one changed no down-send", end)
		}
	}
}

// TestSeekDoesNotAllocate pins the seek's memory contract: after a
// cursor's first seek has made its stack, seeking anywhere allocates
// nothing, on a deep plan and a shallow one.
func TestSeekDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, g := range []*graph.Graph{graph.Cycle(300), graph.RandomConnected(rng, 300, 0.03)} {
		tr, err := spantree.MinDepth(g)
		if err != nil {
			t.Fatal(err)
		}
		p := New(spantree.Label(tr))
		c := p.Cursor()
		c.seek(p.Rounds() / 2)
		if allocs := testing.AllocsPerRun(50, func() { c.seek(rng.Intn(p.Rounds())) }); allocs != 0 {
			t.Fatalf("%v (height %d): a seek allocates %.1f times", g, p.height, allocs)
		}
	}
}
