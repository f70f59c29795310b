package graph

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the shared BFS sweep engine. Every O(nm) all-roots question
// the library asks — the Section 3.1 minimum-depth spanning tree, the
// radius, the diameter, the center, the full eccentricity vector — reduces
// to "run a BFS from every vertex and fold the heights". The engine runs
// that sweep once, well: roots fan out over a GOMAXPROCS worker pool, each
// worker traverses a flat CSR snapshot with preallocated epoch-stamped
// scratch (zero allocations per traversal after warm-up), and for
// minimum-seeking sweeps roots are pruned with eccentricity lower bounds
// and abandoned mid-traversal as soon as they provably lose to the best
// height found so far.

// ErrDisconnected is wrapped by every sweep error caused by the graph not
// being connected, so callers can distinguish "disconnected input" from
// other failures with errors.Is.
var ErrDisconnected = errors.New("graph: disconnected")

// SweepMode selects what a sweep computes and which prunes it may apply.
type SweepMode int

const (
	// SweepAll computes the exact eccentricity of every vertex (and hence
	// radius, diameter and all centers). No pruning is possible: every
	// answer is demanded, so every root is traversed to completion.
	SweepAll SweepMode = iota
	// SweepMin computes the radius and the exact set of center vertices —
	// everything the minimum-depth spanning tree construction needs. Roots
	// that provably cannot be centers are skipped or abandoned early, so
	// Ecc entries for non-centers may be unknown and Diameter is not
	// computed.
	SweepMin
)

// SweepStats reports how much work a sweep actually did, for observability
// and for asserting that pruning fires where it should.
type SweepStats struct {
	Roots          int // vertices in the graph (one candidate root each)
	Seeds          int // sequential seed traversals (double sweep + center probe)
	Completed      int // traversals run to completion, seeds included
	Pruned         int // roots skipped outright by the eccentricity lower bound
	ShortCircuited int // traversals abandoned once they exceeded the best height
	Workers        int // size of the worker pool the roots were fanned over

	// Elapsed is the wall-clock duration of the sweep, for the
	// observability layer's sweep-timing metrics.
	Elapsed time.Duration
}

// SweepResult is the outcome of one sweep over all roots.
type SweepResult struct {
	Mode SweepMode
	// Ecc[v] is the exact eccentricity of v, or -1 when the sweep proved v
	// irrelevant without finishing its traversal (SweepMin only; SweepAll
	// fills every entry).
	Ecc []int
	// Radius is the minimum eccentricity; Center the lowest-numbered vertex
	// achieving it; Centers all vertices achieving it, ascending. These are
	// exact in every mode.
	Radius  int
	Center  int
	Centers []int
	// Diameter is the maximum eccentricity in SweepAll mode and -1 in
	// SweepMin mode (a pruned sweep learns only a lower bound on it).
	Diameter int
	Stats    SweepStats
}

// noCutoff disables early exit in a traversal.
const noCutoff = math.MaxInt32

// sweepScratch is one worker's reusable traversal state. Visitation is
// tracked by stamping mark[v] with the current epoch instead of refilling a
// distance array with -1, so starting a traversal costs O(1), not O(n), and
// a warm scratch performs a whole BFS without allocating.
type sweepScratch struct {
	dist  []int32
	mark  []uint32
	queue []int32
	epoch uint32
}

func newSweepScratch(n int) *sweepScratch {
	return &sweepScratch{
		dist:  make([]int32, n),
		mark:  make([]uint32, n),
		queue: make([]int32, n),
	}
}

// bfs traverses from src over the CSR snapshot. It returns the eccentricity
// of src, the number of vertices reached, and ok = true. If cutoff is set
// and some vertex is discovered at distance > cutoff, the traversal is
// abandoned immediately with ok = false (ecc(src) > cutoff is then proven).
// Neighbours are scanned in sorted order, preserving the deterministic
// discovery order of the slice-based BFS.
func (s *sweepScratch) bfs(c *csr, src, cutoff int32) (ecc int32, reached int, ok bool) {
	s.epoch++
	if s.epoch == 0 { // wrapped: invalidate stale stamps once
		clear(s.mark)
		s.epoch = 1
	}
	e := s.epoch
	q := s.queue[:1]
	q[0] = src
	s.mark[src] = e
	s.dist[src] = 0
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := s.dist[u]
		for i := c.row[u]; i < c.row[u+1]; i++ {
			v := c.col[i]
			if s.mark[v] == e {
				continue
			}
			if du+1 > cutoff {
				return du + 1, len(q), false
			}
			s.mark[v] = e
			s.dist[v] = du + 1
			q = append(q, v)
		}
	}
	return s.dist[q[len(q)-1]], len(q), true
}

// Sweep runs BFS traversals from every vertex and folds them according to
// mode. It parallelises roots over runtime.GOMAXPROCS workers and, in
// SweepMin mode, prunes roots with the lower bound ecc(v) >= |ecc(u) -
// d(u,v)| (and ecc(v) >= d(u,v)) taken over completed traversals — seeded
// by a double sweep from vertex 0 plus a probe of the approximate center —
// and abandons a traversal as soon as its frontier depth exceeds the best
// eccentricity found so far.
//
// Despite the pruning and the nondeterministic traversal order, the
// minimum-side answers are exact and deterministic: a root v with ecc(v)
// equal to the final radius can never be pruned (the bound would imply
// ecc(v) > radius) nor abandoned (the cutoff never drops below the final
// radius, so v's frontier never exceeds it), so every center completes and
// Radius/Center/Centers match the naive n-BFS fold bit for bit.
//
// Sweep returns an error wrapping ErrDisconnected when g is not connected,
// and an error on the empty graph, where eccentricity is undefined.
func (g *Graph) Sweep(mode SweepMode) (*SweepResult, error) {
	if mode != SweepAll && mode != SweepMin {
		return nil, fmt.Errorf("graph: unknown sweep mode %d", int(mode))
	}
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("graph: sweep of an empty graph")
	}
	sweepStart := time.Now()
	c := newCSR(g)
	res := &SweepResult{Mode: mode, Ecc: make([]int, n), Diameter: -1}
	for i := range res.Ecc {
		res.Ecc[i] = -1
	}
	stats := &res.Stats
	stats.Roots = n

	// lb[v] is the shared, seed-derived lower bound on ecc(v); read-only
	// once the workers start. Workers refine private copies from their own
	// completed traversals.
	var lb []int32
	if mode == SweepMin {
		lb = make([]int32, n)
	}
	seedScratch := newSweepScratch(n)
	runSeed := func(root int32) (int32, error) {
		ecc, reached, _ := seedScratch.bfs(c, root, noCutoff)
		stats.Seeds++
		stats.Completed++
		if reached < n {
			for v := 0; v < n; v++ {
				if seedScratch.mark[v] != seedScratch.epoch {
					return 0, fmt.Errorf("%w: vertex %d unreachable from vertex %d", ErrDisconnected, v, root)
				}
			}
		}
		res.Ecc[root] = int(ecc)
		if lb != nil {
			for v, d := range seedScratch.dist {
				b := ecc - d
				if b < 0 {
					b = -b
				}
				if d > b {
					b = d
				}
				if b > lb[v] {
					lb[v] = b
				}
			}
		}
		return ecc, nil
	}

	// Seed phase: BFS from vertex 0 establishes connectivity (and the
	// deterministic tie-break anchor). In SweepMin mode the classic double
	// sweep follows — farthest u from 0, farthest w from u — plus a probe
	// of the approximate center between u and w, which usually lands the
	// cutoff at or near the true radius before any parallel work starts.
	ecc0, err := runSeed(0)
	if err != nil {
		return nil, err
	}
	best := ecc0
	if mode == SweepMin && n > 1 {
		dist0 := append([]int32(nil), seedScratch.dist...)
		u := lowestArgmax(dist0)
		eccU, _ := runSeed(int32(u)) // u != 0: ecc0 >= 1 on a connected n>1 graph
		if eccU < best {
			best = eccU
		}
		distU := append([]int32(nil), seedScratch.dist...)
		w := lowestArgmax(distU)
		distW := dist0
		if w != 0 && w != u {
			eccW, _ := runSeed(int32(w))
			if eccW < best {
				best = eccW
			}
			distW = seedScratch.dist
		}
		mid, midScore := 0, int32(math.MaxInt32)
		for v := 0; v < n; v++ {
			s := distU[v]
			if distW[v] > s {
				s = distW[v]
			}
			if s < midScore {
				mid, midScore = v, s
			}
		}
		if res.Ecc[mid] < 0 {
			eccM, _ := runSeed(int32(mid))
			if eccM < best {
				best = eccM
			}
		}
	}

	// Parallel phase: fan the remaining roots over the pool. Each index of
	// res.Ecc is written by at most one goroutine, and aggregation happens
	// after the join, so the slice needs no synchronisation of its own.
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	stats.Workers = workers
	var (
		nextRoot       atomic.Int64
		bestEcc        atomic.Int32
		completed      atomic.Int64
		pruned         atomic.Int64
		shortCircuited atomic.Int64
		wg             sync.WaitGroup
	)
	bestEcc.Store(best)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newSweepScratch(n) // warm-up: all traversal state for this worker
			var myLB []int32
			if mode == SweepMin {
				myLB = append([]int32(nil), lb...)
			}
			for {
				i := nextRoot.Add(1) - 1
				if i >= int64(n) {
					return
				}
				root := int32(i)
				if res.Ecc[root] >= 0 {
					continue // already answered by the seed phase
				}
				if mode == SweepAll {
					ecc, _, _ := sc.bfs(c, root, noCutoff)
					res.Ecc[root] = int(ecc)
					completed.Add(1)
					continue
				}
				b := bestEcc.Load()
				if myLB[root] > b {
					pruned.Add(1)
					continue
				}
				ecc, _, ok := sc.bfs(c, root, b)
				if !ok {
					shortCircuited.Add(1)
					continue
				}
				res.Ecc[root] = int(ecc)
				completed.Add(1)
				for cur := bestEcc.Load(); ecc < cur; cur = bestEcc.Load() {
					if bestEcc.CompareAndSwap(cur, ecc) {
						break
					}
				}
				// Refine this worker's bounds from the finished traversal
				// while its distance array is still warm.
				for v, d := range sc.dist {
					bnd := ecc - d
					if bnd < 0 {
						bnd = -bnd
					}
					if d > bnd {
						bnd = d
					}
					if bnd > myLB[v] {
						myLB[v] = bnd
					}
				}
			}
		}()
	}
	wg.Wait()
	stats.Completed += int(completed.Load())
	stats.Pruned = int(pruned.Load())
	stats.ShortCircuited = int(shortCircuited.Load())

	radius, diameter := -1, -1
	for _, e := range res.Ecc {
		if e < 0 {
			continue
		}
		if radius < 0 || e < radius {
			radius = e
		}
		if e > diameter {
			diameter = e
		}
	}
	res.Radius = radius
	for v, e := range res.Ecc {
		if e == radius {
			res.Centers = append(res.Centers, v)
		}
	}
	res.Center = res.Centers[0]
	if mode == SweepAll {
		res.Diameter = diameter
	}
	res.Stats.Elapsed = time.Since(sweepStart)
	return res, nil
}

// ComponentDiameter returns the largest distance realised within any
// connected component: the diameter for a connected graph, and the worst
// per-component diameter for a disconnected one (unreachable pairs are
// ignored, so it never panics). Package repair uses it to size repair
// batches over survivor subgraphs, which are disconnected exactly when a
// partition has occurred. The empty graph has component diameter 0.
//
// It runs one traversal per vertex on the sweep engine — the CSR snapshot,
// epoch-stamped scratch and a GOMAXPROCS worker pool. A traversal reaches
// only its own component, so the greatest eccentricity any of them reports
// is the worst component's diameter; no connectivity check is needed.
func (g *Graph) ComponentDiameter() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	c := newCSR(g)
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	var (
		nextRoot atomic.Int64
		diam     atomic.Int32
		wg       sync.WaitGroup
	)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newSweepScratch(n)
			best := int32(0)
			for i := nextRoot.Add(1) - 1; i < int64(n); i = nextRoot.Add(1) - 1 {
				ecc, _, _ := sc.bfs(c, int32(i), noCutoff)
				best = max(best, ecc)
			}
			for cur := diam.Load(); best > cur && !diam.CompareAndSwap(cur, best); cur = diam.Load() {
			}
		}()
	}
	wg.Wait()
	return int(diam.Load())
}

// lowestArgmax returns the lowest index holding the maximum value.
func lowestArgmax(d []int32) int {
	arg := 0
	for v, x := range d {
		if x > d[arg] {
			arg = v
		}
	}
	return arg
}
