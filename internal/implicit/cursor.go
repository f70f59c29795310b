package implicit

import (
	"fmt"
	"sort"

	"multigossip/internal/schedule"
)

// unknown marks a D2 capture slot whose arrival happened before the
// cursor's last seek: the cursor did not witness it, so the release
// resolves it on demand through arrivalAt.
const unknown = -2

// Cursor walks a plan's rounds holding exactly the state of the D1/D2
// recurrence over the packed arrays: per vertex, the message it multicast
// toward its children in the held round (which is what each child hears
// next round) and the at most two o-messages it captured at times i-k and
// i-k+1. Up-sends and b-message sends stay closed-form. Advancing one
// round is therefore O(n) whatever the tree height, where evaluating a
// round from scratch walks ancestor chains (O(n·h) on deep trees).
//
// A Cursor is a schedule.Source: RoundAt(t) steps forward when t is at or
// shortly after the held round and seeks otherwise, so a sequential scan
// costs O(n) per round and a random round costs one closed-form
// evaluation. A Cursor is not safe for concurrent use; Plan.RoundAppend
// keeps one per plan in an atomically swapped slot.
type Cursor struct {
	p *Plan
	t int // held round: down holds its down-sends; -1 before round 0

	down       []int32 // down[v]: what v multicast to its children in round t, or -1
	cap0, cap1 []int32 // D2 captures at i-k and i-k+1: a message, -1, or unknown

	// A leaf sends exactly once, up at time i-k (time 0 when it is a lip),
	// so the round loops visit the inner vertices and only the leaves whose
	// time has come: inner lists the non-leaves ascending, leaves lists the
	// leaves by (send time, label), and leaves[next:] send at or after t.
	inner  []int32
	leaves []int32
	next   int

	buf []schedule.Transmission // RoundAt's recycled round
}

// Cursor returns a fresh cursor positioned before round 0. It allocates
// CursorBytes; the plan itself is not touched.
func (p *Plan) Cursor() *Cursor {
	c := &Cursor{
		p:    p,
		down: make([]int32, p.n),
		cap0: make([]int32, p.n),
		cap1: make([]int32, p.n),
	}
	// Inner vertices ascending, then the sending leaves by send time: the
	// lips (all at time 0), then the other leaves in label order, which is
	// send-time order because i-k strictly increases along the preorder
	// leaves (between leaves u < v the path down to v from their common
	// ancestor has depth(v)-depth(lca) > depth(v)-depth(u) vertices, all
	// labelled in (u, v]).
	ids := make([]int32, 0, p.n)
	for v := int32(0); v < int32(p.n); v++ {
		if !p.isLeaf(v) {
			ids = append(ids, v)
		}
	}
	c.inner = ids[:len(ids):len(ids)]
	for _, lip := range []int32{1, 0} {
		for v := int32(0); v < int32(p.n); v++ {
			if p.isLeaf(v) && p.parent[v] >= 0 && p.w(v) == lip {
				ids = append(ids, v)
			}
		}
	}
	c.leaves = ids[len(c.inner):]
	c.seek(-1)
	return c
}

// leafTime is the one round in which non-root leaf v sends (up, to its
// parent): 0 for a lip, i-k otherwise (U3/U4 with j = i).
func (p *Plan) leafTime(v int32) int {
	if p.w(v) == 1 {
		return 0
	}
	return int(v - p.level[v])
}

// CursorBytes is the resident size of one Cursor's state (its round buffer
// excluded): four int32 words per vertex plus the header.
func (p *Plan) CursorBytes() int64 { return int64(4*p.n)*4 + 3*8 + 6*24 }

// Shape implements schedule.Source.
func (c *Cursor) Shape() (n, nmsg, rounds int) { return c.p.n, c.p.n, c.p.Rounds() }

// RoundAt implements schedule.Source: the transmissions of round t in the
// layout of Plan.RoundAppend, valid until the next call. Out-of-range
// rounds are empty.
func (c *Cursor) RoundAt(t int) schedule.Round {
	c.buf = c.appendRound(t, c.buf[:0])
	return c.buf
}

// appendRound moves the cursor to round t and appends its transmissions.
func (c *Cursor) appendRound(t int, dst []schedule.Transmission) []schedule.Transmission {
	if t < 0 || t >= c.p.Rounds() {
		return dst
	}
	c.moveTo(t)
	return c.appendHeld(dst)
}

// moveTo makes t the held round. Stepping costs O(n) per round and a seek
// about one closed-form round evaluation, whose ancestor walks are bounded
// by the tree height; so the cursor steps while the gap is within the
// height and seeks beyond it, or backwards.
func (c *Cursor) moveTo(t int) {
	if t < c.t || t-c.t > c.p.height+1 {
		c.seek(t)
		return
	}
	for c.t < t {
		c.step()
	}
}

// seek makes t the held round by evaluating every down-send of round t
// from the closed forms. Captures made at or before t are left unknown and
// resolved if their release is reached.
func (c *Cursor) seek(t int) {
	p := c.p
	for v := int32(0); v < int32(p.n); v++ {
		c.down[v] = -1
		if t >= 0 {
			c.down[v] = p.downSendAt(v, t)
		}
		c.cap0[v], c.cap1[v] = unknown, unknown
	}
	c.t = t
	c.next = sort.Search(len(c.leaves), func(i int) bool { return p.leafTime(c.leaves[i]) >= t })
}

// step advances the held round by one. Vertices are visited children
// first (descending canonical label, since every parent's label is
// smaller), so down[parent] still holds the previous round — the message
// this round's arrival carries — when the child reads it.
func (c *Cursor) step() {
	p := c.p
	u := c.t + 1
	for x := len(c.inner) - 1; x >= 0; x-- {
		v := c.inner[x]
		in := int32(-1)
		if par := p.parent[v]; par >= 0 {
			// D3 excludes the owner child, so a message of v's own subtree
			// never arrives from above.
			if m := c.down[par]; m != -1 && (m < v || m > p.hi[v]) {
				in = m
			}
		}
		c.down[v] = c.downNext(v, u, in)
	}
	c.t = u
	for c.next < len(c.leaves) && p.leafTime(c.leaves[c.next]) < u {
		c.next++
	}
}

// downNext is downSendAt for non-leaf v at time u, given the arrival in
// from its parent at u; it records D2 captures as it passes them.
func (c *Cursor) downNext(v int32, u int, in int32) int32 {
	p := c.p
	i, j, k := v, p.hi[v], p.level[v]
	bLo, bHi := int(i-k), int(j-k)
	if u >= bLo && u <= bHi {
		if i != k {
			switch u {
			case bLo:
				c.cap0[v] = in
			case bLo + 1:
				c.cap1[v] = in
			}
		}
		if m := int32(u) + k; m != i || i != k {
			return m
		}
		return -1 // the leftmost path's s-message, relocated to bHi+1
	}
	if i == k {
		if u == bHi+1 {
			return i
		}
		return in
	}
	if in != -1 {
		return in
	}
	if u == bHi+1 || u == bHi+2 {
		if c.cap0[v] == unknown {
			c.cap0[v] = p.arrivalAt(v, bLo)
		}
		if c.cap1[v] == unknown {
			c.cap1[v] = p.arrivalAt(v, bLo+1)
		}
		queue := [2]int32{c.cap0[v], c.cap1[v]}
		if queue[0] == -1 {
			queue = [2]int32{queue[1], -1}
		}
		return queue[u-(bHi+1)]
	}
	return -1
}

// appendHeld appends the held round's transmissions to dst in original
// identifiers, destination sets sorted, ordered by canonical sender — the
// layout of the materialised schedule. Like append it treats dst's spare
// capacity as scratch, reusing the To slice of each slot it grows into.
func (c *Cursor) appendHeld(dst []schedule.Transmission) []schedule.Transmission {
	p := c.p
	t := c.t
	inner, leaves := c.inner, c.leaves[c.next:]
	for len(inner) > 0 || len(leaves) > 0 {
		// Merge the inner vertices with the leaves sending this round, in
		// ascending label order.
		var v int32
		if len(leaves) > 0 && p.leafTime(leaves[0]) == t && (len(inner) == 0 || leaves[0] < inner[0]) {
			v, leaves = leaves[0], leaves[1:]
		} else if len(inner) > 0 {
			v, inner = inner[0], inner[1:]
		} else {
			break
		}
		// Propagate-Up (U3/U4): each non-root vertex sends its lip message
		// i at time 0 (when w = 1) and every remaining b-message m in
		// [i+w, j] at time m - k.
		up := int32(-1)
		if par := p.parent[v]; par >= 0 {
			w := p.w(v)
			if m := int32(t) + p.level[v]; m >= v+w && m <= p.hi[v] {
				up = m
			} else if t == 0 && w == 1 {
				up = v
			}
		}
		down := c.down[v]
		msg := up
		if down != -1 {
			if msg != -1 && msg != down {
				panic(fmt.Sprintf("implicit: vertex %d emits %d and %d at %d", v, msg, down, t))
			}
			msg = down
		}
		if msg == -1 {
			continue
		}
		var kids []int32
		ow := int32(-1)
		if down != -1 {
			kids = p.kids(v)
			ow = p.owner(v, msg)
		}
		fan := len(kids)
		if ow != -1 {
			fan--
		}
		if up != -1 {
			fan++
		}
		if fan == 0 {
			continue // b-message owned by an only child: empty multicast
		}
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, schedule.Transmission{})
		}
		tx := &dst[len(dst)-1]
		dests := tx.To[:0]
		if cap(dests) < fan {
			dests = make([]int, 0, fan)
		}
		if up != -1 {
			dests = append(dests, int(p.vertexOf[p.parent[v]]))
		}
		for _, ch := range kids {
			if ch != ow {
				dests = append(dests, int(p.vertexOf[ch]))
			}
		}
		sortSmall(dests)
		tx.Msg, tx.From, tx.To = int(p.vertexOf[msg]), int(p.vertexOf[v]), dests
	}
	return dst
}

// sortSmall sorts a destination set. Most are a parent plus a few
// children, where insertion sort beats the general sort's set-up.
func sortSmall(xs []int) {
	if len(xs) > 12 {
		sort.Ints(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Summary is the aggregate of a streamed, count-verified schedule.
type Summary struct {
	Rounds        int
	Transmissions int
	Deliveries    int
	MaxFanout     int
}

// Verify streams every round through a Cursor and checks the invariants
// that O(n) state can check: each processor sends at most once and
// receives at most once per round, every delivery crosses a tree edge,
// every processor receives exactly n-1 messages, and the schedule lasts
// n + height rounds. Full hold-set validation is the quadratic validator's
// job (schedule.Run); the differential tests bridge the two.
func (p *Plan) Verify() (Summary, error) {
	n := p.n
	parentOf := func(x int) int {
		if par := p.parent[p.labelOf[x]]; par >= 0 {
			return int(p.vertexOf[par])
		}
		return -1
	}
	sentRound := make([]int, n)
	recvRound := make([]int, n)
	recvCount := make([]int, n)
	for v := range sentRound {
		sentRound[v], recvRound[v] = -1, -1
	}
	sum := Summary{Rounds: p.Rounds()}
	c := p.Cursor()
	for t := 0; t < sum.Rounds; t++ {
		for _, tx := range c.RoundAt(t) {
			if sentRound[tx.From] == t {
				return sum, fmt.Errorf("implicit: vertex %d sends twice at %d", tx.From, t)
			}
			sentRound[tx.From] = t
			sum.Transmissions++
			if len(tx.To) > sum.MaxFanout {
				sum.MaxFanout = len(tx.To)
			}
			for _, d := range tx.To {
				if d != parentOf(tx.From) && parentOf(d) != tx.From {
					return sum, fmt.Errorf("implicit: %d-%d is not a tree edge", tx.From, d)
				}
				if recvRound[d] == t {
					return sum, fmt.Errorf("implicit: vertex %d receives twice at %d", d, t)
				}
				recvRound[d] = t
				recvCount[d]++
				sum.Deliveries++
			}
		}
	}
	if n >= 2 && sum.Rounds != n+p.height {
		return sum, fmt.Errorf("implicit: %d rounds, want n + height = %d", sum.Rounds, n+p.height)
	}
	for v, got := range recvCount {
		if n >= 2 && got != n-1 {
			return sum, fmt.Errorf("implicit: vertex %d received %d messages, want %d", v, got, n-1)
		}
	}
	return sum, nil
}
