package implicit

import "math"

// Diagonal evaluation of Propagate-Down (D1-D3).
//
// Put σ = t - k for a vertex at level k sending at time t. A child hears at
// t+1 what its parent sent at t, and the child's level is k+1, so o-message
// forwarding keeps σ fixed: the rule runs along diagonals of the (vertex,
// time) grid. A non-leaf vertex a = (i, j, k) decides its own down-send
// only on its σ-interval
//
//	I_a = [i - 2k, j - 2k + 2]   (j - 2k + 1 when i = k),
//
// the b-region [i-k, j-k] plus the release slots; everywhere else it
// forwards its parent's send on the same diagonal, minus its own subtree.
// So v's down-send at t is decided by the deepest non-leaf ancestor-or-self
// a whose interval holds σ = t - k_v, evaluated at a's time τ = σ + k_a,
// and dropped when it lies in the subtree of a's child toward v. Along an
// ancestor chain the interval ends j - 2k + 2 strictly decrease with depth,
// so the ancestors whose interval reaches σ from above form a prefix of
// the chain, found by binary search; the deepest of those whose start
// i - 2k is at most σ is found by skew-binary jump pointers that carry the
// least start they skip. Both searches are O(log h) on a chain of height h.
//
// The release slots j-k+1 and j-k+2 of a vertex off the leftmost path are
// the only evaluations that need history (D1 forwarding wins the slot,
// otherwise D2 releases the captures made at i-k and i-k+1). All four of
// those arrivals are diagonal queries over proper ancestors, so the two
// released messages are constants of the plan, computed once in preorder.

// link is one entry of an ancestor stack: a vertex and a jump pointer to
// a shallower entry with the least interval start over the entries the
// jump skips, (jump, this]. The interval itself is re-derived from the
// vertex, which keeps an entry at three words.
type link struct {
	v, jump, minLo int32
}

// newStack returns an ancestor stack for a plan of height h. Entry x holds
// the chain vertex at level x-1; entry 0 is a sentinel that covers nothing
// and ends every search.
func newStack(h int) []link {
	s := make([]link, h+2)
	s[0] = link{v: -1, minLo: math.MaxInt32}
	return s
}

// stackBytes is the resident size of newStack(h).
func stackBytes(h int) int64 { return int64(h+2)*12 + 24 }

// interval returns the σ-interval of the stack entry x > 0.
func (p *Plan) interval(s []link, x int) (lo, hi int32) {
	v, k := s[x].v, int32(x-1)
	hi = p.hi[v] - 2*k + 2
	if v == k {
		hi--
	}
	return v - 2*k, hi
}

// push makes v, at level x-1, the top of the stack s. Entries below x must
// hold v's ancestors, which a preorder pass guarantees. The jump pointers
// follow the skew-binary scheme: a jump spans either one entry or two
// equal adjacent spans, which bounds every search at O(log h) hops.
func (p *Plan) push(s []link, x int, v int32) {
	lo := v - 2*int32(x-1)
	e := link{v: v, jump: int32(x - 1), minLo: lo}
	par := &s[x-1]
	if up := &s[par.jump]; int32(x-1)-par.jump == par.jump-up.jump {
		e.jump = up.jump
		e.minLo = min(lo, par.minLo, up.minLo)
	}
	s[x] = e
}

// stackOf returns a stack holding v and its ancestors, v at entry
// level[v]+1. A leaf's entry serves only to owner-filter what it hears.
func (p *Plan) stackOf(v int32) []link {
	p.release()
	s := newStack(p.height)
	x := int(p.level[v]) + 1
	for a, y := v, x; y > 0; a, y = p.parent[a], y-1 {
		s[y].v = a
	}
	for y := 1; y <= x; y++ {
		p.push(s, y, s[y].v)
	}
	return s
}

// sendOn evaluates the down-send on diagonal σ of the vertex at entry
// last, as decided by the entries 1..top (top = last for the vertex's own
// down-send, top = last-1 for what it hears from its parent): -1 when no
// entry's interval holds σ or the message belongs to the subtree of the
// entry just below the deciding one.
func (p *Plan) sendOn(s []link, top, last int, sigma int32) int32 {
	// The entries whose interval ends at or after σ are a prefix of the
	// stack (the sentinel counts as one); x becomes its last.
	x, y := 0, top
	for x < y {
		mid := (x + y + 1) / 2
		if _, hi := p.interval(s, mid); hi >= sigma {
			x = mid
		} else {
			y = mid - 1
		}
	}
	// The deepest of them whose interval starts at or before σ.
	for x > 0 && s[x].v-2*int32(x-1) > sigma {
		if s[x].minLo > sigma {
			x = int(s[x].jump)
		} else {
			x--
		}
	}
	if x == 0 {
		return -1
	}
	m := p.sendLocal(s[x].v, sigma)
	if m != -1 && x < last {
		if c := s[x+1].v; m >= c && m <= p.hi[c] {
			return -1
		}
	}
	return m
}

// sendLocal is a's down-send on a diagonal σ inside its own interval I_a.
func (p *Plan) sendLocal(a, sigma int32) int32 {
	i, j, k := a, p.hi[a], p.level[a]
	tau := sigma + k
	switch {
	case tau <= j-k:
		// D3: b-message τ + k, except the leftmost path's s-message at
		// τ = i - k = 0, relocated to j - k + 1.
		if m := tau + k; m != i || i != k {
			return m
		}
		return -1
	case i == k:
		return i // the relocated s-message (root: message 0 at time n)
	default:
		return p.released(a, tau-(j-k+1))
	}
}

// leftmostEnd returns the leaf that ends the leftmost DFS path: the labels
// 0..leftmostEnd() are exactly the vertices with i = k, which never
// capture, so the release table starts after them.
func (p *Plan) leftmostEnd() int32 {
	v := int32(0)
	for !p.isLeaf(v) {
		v++ // the first child of v is v+1
	}
	return v
}

// released is what non-leaf v off the leftmost path sends at j-k+1+slot.
func (p *Plan) released(v, slot int32) int32 {
	return p.rel[2*(v-p.relBase)+slot]
}

// release builds the plan's D2 release table on first use: what each
// non-leaf v off the leftmost path sends at j-k+1 and j-k+2 (see
// released). It costs 8 bytes per vertex after the leftmost path (counted
// in CursorBytes) and one O(n log h) preorder pass.
func (p *Plan) release() {
	p.relOnce.Do(func() {
		p.relBase = p.leftmostEnd() + 1
		p.rel = make([]int32, 2*(int32(p.n)-p.relBase))
		s := newStack(p.height)
		for v := int32(0); v < int32(p.n); v++ {
			if p.isLeaf(v) {
				continue
			}
			i, j, k := v, p.hi[v], p.level[v]
			x := int(k) + 1
			p.push(s, x, v)
			if i == k {
				continue
			}
			// v's arrival at time τ is its parent's send on diagonal τ - k,
			// owner-filtered: a query over v's proper ancestors. Every
			// release slot an ancestor's answer needs was filled earlier in
			// preorder.
			arrival := func(tau int32) int32 { return p.sendOn(s, x-1, x, tau-k) }
			queue := [2]int32{arrival(i - k), arrival(i - k + 1)}
			if queue[0] == -1 {
				queue = [2]int32{queue[1], -1}
			}
			for slot := int32(0); slot < 2; slot++ {
				m := arrival(j - k + 1 + slot)
				if m == -1 {
					m = queue[slot]
				}
				p.rel[2*(v-p.relBase)+slot] = m
			}
		}
	})
}
