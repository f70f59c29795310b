// Package implicit is the O(n)-word representation of a ConcurrentUpDown
// plan. A materialised schedule.Schedule is a Θ(n²) object — every
// processor receives n-1 messages — but the paper's construction is
// closed-form per vertex: every transmission of ConcurrentUpDown is
// determined by the tuple (i, j, k, w, n) of the sending vertex plus the
// same tuples along its ancestor path (PAPER.md U1-U4 / D1-D3). This
// package stores exactly that — the DFS preorder intervals, levels, lip
// bits and parent/child structure of the labelled minimum-depth tree, in
// packed int32 form — and answers Round(t) and per-vertex timetables by
// evaluating the send/receive formulas on demand, with zero
// materialisation.
//
// Query model. Propagate-Up sends (U3/U4) and Propagate-Down b-message
// sends (D3, with its i = k leftmost relocation) are direct formulas. The
// only non-local rule is D1/D2 o-message forwarding: what v forwards at
// time t is what its parent sent at time t-1, minus the messages of v's
// own subtree, with arrivals at times i-k and i-k+1 held back to j-k+1
// and j-k+2. That is a one-round recurrence, and a Cursor runs it: it
// keeps each vertex's last down-send, so stepping to the next round costs
// O(n) at any tree height. The recurrence keeps t - k fixed from parent to
// child, so a round can also be evaluated from scratch along those
// diagonals (diagonal.go): one preorder pass with an ancestor stack
// answers every vertex in O(log h), and the two messages each vertex
// releases under D2 are constants of the plan, computed once. RoundAppend
// resumes a cursor the plan keeps when the requested round is at or
// shortly after it, and otherwise seeks it that way; Timetable answers one
// vertex's rows from the same stack over its ancestors.
//
// Equivalence with the materialising builder (core.BuildConcurrentUpDown)
// is bit-exact and enforced by differential tests, property tests over the
// named topologies, and the FuzzImplicitRound harness.
package implicit

import (
	"sync"
	"sync/atomic"

	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// Plan is a compact, immutable ConcurrentUpDown plan: O(n) words total.
// All slices are index-by-canonical-DFS-label; the vertexOf/labelOf pair
// translates to and from the network's original identifiers. Safe for
// concurrent use: the packed arrays are immutable, the release table is
// built once behind a sync.Once, and the RoundAppend cursor is owned by
// one caller at a time.
type Plan struct {
	n      int
	height int

	// Canonical-space tree structure, packed. hi[v] closes the subtree
	// interval [v, hi[v]]; level[v] is k; parent[v] is -1 at the root.
	// childStart/children is the CSR of the child lists (sorted, which in
	// canonical space means consecutive subtree intervals).
	hi         []int32
	level      []int32
	parent     []int32
	childStart []int32
	children   []int32

	// lip[v>>6]>>(v&63)&1 is w, the lip bit: v is its parent's first child
	// (v == parent+1 in canonical space). Derivable from parent, but it is
	// the w of the paper's tuple and costs n/64 words to keep explicit.
	lip []uint64

	// vertexOf maps canonical label -> original vertex id; labelOf is the
	// inverse. Message m originates at original vertex vertexOf[m].
	vertexOf []int32
	labelOf  []int32

	// cur is RoundAppend's cursor slot: a caller swaps the cursor out, moves
	// it to the requested round and stores it back, so concurrent callers
	// never share one (a caller finding the slot empty makes its own).
	cur atomic.Pointer[Cursor]

	// rel is the D2 release table of the vertices from relBase on (see
	// release), built once by the first cursor or timetable.
	relOnce sync.Once
	relBase int32
	rel     []int32
}

// New builds the compact plan from a DFS-labelled minimum-depth tree.
func New(l *spantree.Labeled) *Plan {
	n := l.N()
	p := &Plan{
		n:          n,
		height:     l.T.Height,
		hi:         make([]int32, n),
		level:      make([]int32, n),
		parent:     make([]int32, n),
		childStart: make([]int32, n+1),
		lip:        make([]uint64, (n+63)/64),
		vertexOf:   make([]int32, n),
		labelOf:    make([]int32, n),
	}
	for v := 0; v < n; v++ {
		p.hi[v] = int32(l.Hi[v])
		p.level[v] = int32(l.T.Level[v])
		p.parent[v] = int32(l.T.Parent[v])
		p.vertexOf[v] = int32(l.VertexOf[v])
		p.labelOf[l.VertexOf[v]] = int32(v)
		if l.LipCount(v) == 1 {
			p.lip[v>>6] |= 1 << (v & 63)
		}
	}
	kids := 0
	for v := 0; v < n; v++ {
		p.childStart[v] = int32(kids)
		kids += len(l.T.Children[v])
	}
	p.childStart[n] = int32(kids)
	p.children = make([]int32, kids)
	for v := 0; v < n; v++ {
		copy(p.children[p.childStart[v]:], int32s(l.T.Children[v]))
	}
	return p
}

func int32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// Topo is a read-only view of the plan's packed canonical-space arrays,
// for engines (the sharded simulator) that evaluate the protocol directly
// over the int32 layout without re-deriving it from pointerful spantree
// structures. All slices alias the plan's storage: callers must not
// mutate them. Hi[v] closes the subtree interval [v, Hi[v]]; Level[v] is
// k; Parent[v] is -1 at the root; ChildStart/Children is the CSR child
// list; Lip[v>>6]>>(v&63)&1 is the w bit; VertexOf/LabelOf translate
// between canonical labels and original vertex ids.
type Topo struct {
	N      int
	Height int

	Hi         []int32
	Level      []int32
	Parent     []int32
	ChildStart []int32
	Children   []int32
	Lip        []uint64
	VertexOf   []int32
	LabelOf    []int32
}

// Topo returns the packed-array view of the plan. O(1): no copying.
func (p *Plan) Topo() Topo {
	return Topo{
		N:          p.n,
		Height:     p.height,
		Hi:         p.hi,
		Level:      p.level,
		Parent:     p.parent,
		ChildStart: p.childStart,
		Children:   p.children,
		Lip:        p.lip,
		VertexOf:   p.vertexOf,
		LabelOf:    p.labelOf,
	}
}

// N returns the number of processors (= messages).
func (p *Plan) N() int { return p.n }

// Height returns the labelled tree's height (= network radius).
func (p *Plan) Height() int { return p.height }

// Rounds returns the total communication time: n + height for n >= 2
// (Theorem 1), 0 for trivial plans.
func (p *Plan) Rounds() int {
	if p.n <= 1 {
		return 0
	}
	return p.n + p.height
}

// SizeBytes reports the size of the packed arrays plus the struct header.
// The round-generation state, allocated on first use, adds CursorBytes;
// the plan cache charges both from insert.
func (p *Plan) SizeBytes() int64 {
	b := int64(0)
	b += int64(len(p.hi)+len(p.level)+len(p.parent)) * 4
	b += int64(len(p.childStart)+len(p.children)) * 4
	b += int64(len(p.vertexOf)+len(p.labelOf)) * 4
	b += int64(len(p.lip)) * 8
	b += 16 + 9*24 // ints + slice headers
	return b
}

// w returns the lip count of canonical vertex v (0 or 1).
func (p *Plan) w(v int32) int32 {
	return int32(p.lip[v>>6] >> (uint(v) & 63) & 1)
}

func (p *Plan) isLeaf(v int32) bool { return p.hi[v] == v }

// kids returns the canonical child list of v (shared slice; do not mutate).
func (p *Plan) kids(v int32) []int32 {
	return p.children[p.childStart[v]:p.childStart[v+1]]
}

// owner returns the child of v whose subtree interval holds message m, or
// -1 when none does (m == v or m outside v's interval).
func (p *Plan) owner(v, m int32) int32 {
	if m <= v || m > p.hi[v] {
		return -1
	}
	kids := p.kids(v)
	lo, hi := 0, len(kids)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if kids[mid] <= m {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return kids[lo]
}

// RoundAppend appends the transmissions of round t to dst (in the
// network's original identifiers, destination sets sorted, transmissions
// ordered by canonical sender) and returns the extended slice. The layout
// is bit-identical to the materialised schedule's round t. Out-of-range
// rounds append nothing. Like append, RoundAppend treats dst's spare
// capacity as scratch — including the To slices of elements beyond
// len(dst), which it overwrites in place — so looping with dst = dst[:0]
// between rounds reuses every allocation.
//
// Rounds come from the plan's cursor: a call at or shortly after the
// previous call's round steps it forward in O(n) per round, and any other
// call seeks it, at the cost of one closed-form round evaluation.
func (p *Plan) RoundAppend(t int, dst []schedule.Transmission) []schedule.Transmission {
	if t < 0 || t >= p.Rounds() {
		return dst
	}
	c := p.cur.Swap(nil)
	if c == nil {
		c = p.Cursor()
	}
	dst = c.appendRound(t, dst)
	p.cur.Store(c)
	return dst
}

// Timetable renders the per-vertex view of original vertex v in the layout
// of the paper's Tables 1-4, bit-identical to schedule.VertexView over the
// materialised schedule. Cost is O(rounds · log h) — no other vertex's
// transmissions are computed.
func (p *Plan) Timetable(v int) *schedule.VertexTimetable {
	rounds := p.Rounds()
	rows := rounds + 1
	vt := &schedule.VertexTimetable{
		Vertex:     v,
		RecvParent: filled(rows, schedule.NoMessage),
		RecvChild:  filled(rows, schedule.NoMessage),
		SendParent: filled(rows, schedule.NoMessage),
		SendChild:  filled(rows, schedule.NoMessage),
	}
	if p.n <= 1 {
		return vt
	}
	c := p.labelOf[v]
	i, j, k := c, p.hi[c], p.level[c]

	// Sends to the parent: U3/U4 directly.
	if p.parent[c] >= 0 {
		w := p.w(c)
		if w == 1 {
			vt.SendParent[0] = int(p.vertexOf[i])
		}
		for m := i + w; m <= j; m++ {
			vt.SendParent[int(m-k)] = int(p.vertexOf[m])
		}
	}

	// Receives from the children (the paper's Propagate-Up receive rules):
	// the l-message i+1 arrives at time 1 from the first child's lip send,
	// and each r-message m in [i+2 .. j] arrives at time m - k from the
	// child owning m.
	if !p.isLeaf(c) {
		vt.RecvChild[1] = int(p.vertexOf[i+1])
		for m := i + 2; m <= j; m++ {
			vt.RecvChild[int(m-k)] = int(p.vertexOf[m])
		}
	}

	// Sends toward the children and receives from the parent: evaluate the
	// Propagate-Down rules on c's diagonal t - k, over a stack holding c's
	// ancestors (c's own entry decides its sends; what it hears comes from
	// the entries above it). A b-message owned by an only child has an
	// empty owner-excluded destination set — no transmission happens
	// (unless merged with an up-send, which never adds a child
	// destination), so the SendChild row stays empty there.
	s, x := p.stackOf(c), int(k)+1
	if !p.isLeaf(c) {
		onlyChild := p.childStart[c+1]-p.childStart[c] == 1
		for t := 0; t < rounds; t++ {
			if m := p.sendOn(s, x, x, int32(t)-k); m != -1 {
				if onlyChild && p.owner(c, m) != -1 {
					continue
				}
				vt.SendChild[t] = int(p.vertexOf[m])
			}
		}
	}
	if p.parent[c] >= 0 {
		for t := 1; t <= rounds; t++ {
			if m := p.sendOn(s, x-1, x, int32(t)-k); m != -1 {
				vt.RecvParent[t] = int(p.vertexOf[m])
			}
		}
	}
	return vt
}

func filled(n, x int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = x
	}
	return s
}

// Labeled reconstructs the DFS-labelled tree (canonical tree plus the
// original-id mapping) from the packed arrays — the input New was built
// from, byte for byte. It exists so lazy materialisation and the
// distributed executor can run without the plan retaining the pointerful
// spantree structures; cost is O(n) and the result is freshly allocated.
func (p *Plan) Labeled() *spantree.Labeled {
	n := p.n
	parent := make([]int, n)
	for v := 0; v < n; v++ {
		parent[v] = int(p.parent[v])
	}
	l := &spantree.Labeled{
		T:        spantree.MustFromParents(parent),
		VertexOf: make([]int, n),
		LabelOf:  make([]int, n),
		Hi:       make([]int, n),
	}
	for v := 0; v < n; v++ {
		l.VertexOf[v] = int(p.vertexOf[v])
		l.LabelOf[p.vertexOf[v]] = v
		l.Hi[v] = int(p.hi[v])
	}
	return l
}

// OriginalTree reconstructs the minimum-depth spanning tree in the
// network's original vertex identifiers.
func (p *Plan) OriginalTree() *spantree.Tree {
	n := p.n
	parent := make([]int, n)
	for c := 0; c < n; c++ {
		if p.parent[c] < 0 {
			parent[p.vertexOf[c]] = -1
		} else {
			parent[p.vertexOf[c]] = int(p.vertexOf[p.parent[c]])
		}
	}
	return spantree.MustFromParents(parent)
}
