package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	mg "multigossip"
	"multigossip/internal/cliutil"
)

// topo names a network the way a gossipd request spec does.
type topo struct {
	Topology string  `json:"topology"`
	N        int     `json:"n,omitempty"`
	Rows     int     `json:"rows,omitempty"`
	Cols     int     `json:"cols,omitempty"`
	P        float64 `json:"p,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

func (t topo) String() string {
	switch t.Topology {
	case "mesh", "torus":
		return fmt.Sprintf("%s-%dx%d", t.Topology, t.Rows, t.Cols)
	case "random":
		return fmt.Sprintf("random-%d-p%g-s%d", t.N, t.P, t.Seed)
	}
	return fmt.Sprintf("%s-%d", t.Topology, t.N)
}

// build constructs the network exactly as gossipd's request decoder does.
func (t topo) build() (*mg.Network, error) {
	return cliutil.Build(t.Topology, cliutil.Params{
		N: t.N, Rows: t.Rows, Cols: t.Cols, P: t.P, Seed: t.Seed,
	})
}

func ring(n int) topo           { return topo{Topology: "ring", N: n} }
func line(n int) topo           { return topo{Topology: "line", N: n} }
func mesh(rows, cols int) topo  { return topo{Topology: "mesh", Rows: rows, Cols: cols} }
func torus(rows, cols int) topo { return topo{Topology: "torus", Rows: rows, Cols: cols} }
func random(n int, seed int64) topo {
	// Mean degree about ten at every size, so sweep cost grows as n·m.
	return topo{Topology: "random", N: n, P: 10 / float64(n), Seed: seed}
}

// opKind is the gossipd operation a request exercises.
type opKind int

const (
	opSummary opKind = iota // POST /plan, summary only
	opWindow                // POST /plan with rounds_from/rounds_count
	opExecute               // POST /execute under link loss
)

// Fault parameters of every execute request and lib-pipeline job. The
// explicit repair budget keeps completion a property of the schedule and
// the repair loop rather than of the default iteration cap: under the
// default 16 iterations a seeded random-1024 graph at 1% loss can stop
// just short of full coverage.
const (
	linkLoss     = 0.01
	repairBudget = 64
)

// request is one generated operation. Class is what the generator meant
// the request to exercise (hot, new, revisit, window, execute); the
// server's own answer decides how it is counted.
type request struct {
	ID       int
	Kind     opKind
	Class    string
	Topo     topo
	From     int
	Count    int
	LossSeed int64
}

// path is the gossipd endpoint of the request.
func (r *request) path() string {
	if r.Kind == opExecute {
		return "/execute"
	}
	return "/plan"
}

// body is the JSON request body gossipd decodes.
func (r *request) body() []byte {
	m := map[string]any{"topology": r.Topo.Topology}
	t := r.Topo
	if t.N > 0 {
		m["n"] = t.N
	}
	if t.Rows > 0 {
		m["rows"], m["cols"] = t.Rows, t.Cols
	}
	if t.P > 0 {
		m["p"], m["seed"] = t.P, t.Seed
	}
	switch r.Kind {
	case opWindow:
		m["rounds_from"], m["rounds_count"] = r.From, r.Count
	case opExecute:
		m["link_loss"], m["loss_seed"], m["repair_budget"] = linkLoss, r.LossSeed, repairBudget
	}
	b, _ := json.Marshal(m) // a map of strings and numbers always marshals
	return b
}

// stream yields an unbounded, seed-determined request sequence.
type stream interface {
	next() *request
}

// deck deals indices in shuffled blocks with exact counts: counts[i]
// copies of i per block. Every block of consecutive draws then carries the
// workload's exact mix, so heavy requests never bunch beyond what one
// block allows and a percentile never straddles a share that drifted.
type deck struct {
	rng   *rand.Rand
	block []int
	cards []int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for i, n := range counts {
		for j := 0; j < n; j++ {
			d.block = append(d.block, i)
		}
	}
	return d
}

func (d *deck) draw() int {
	if len(d.cards) == 0 {
		d.cards = append(d.cards, d.block...)
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[len(d.cards)-1]
	d.cards = d.cards[:len(d.cards)-1]
	return c
}

// mixStream generates serve-mix traffic: 15 of every 17 requests (88%)
// are summaries over a hot set that stays resident, and the other two are
// cold keys, one never seen before (a build
// plus a store write) and one a revisit of an earlier cold key that the
// memory tier has since evicted (a disk load).
type mixStream struct {
	rng    *rand.Rand
	deck   *deck // hot, new or revisit
	hotDk  *deck // which hot key
	seed   int64
	hot    []topo
	slots  int // memory slots left to cold keys once the hot set is resident
	nextID int

	cold        []coldKey // every cold key handed out, pre-seeded ones first
	coldInserts int       // memory inserts of cold keys so far
	ringSizes   []int     // unused ring sizes, consumed from the end
}

type coldKey struct {
	t          topo
	insertedAt int // coldInserts value when it entered the memory tier
	revisited  bool
}

// Shape of serve-mix: each block of mixBlock requests holds exactly these
// counts.
const (
	mixBlock   = 50
	mixNew     = 3
	mixRevisit = 3
	hotShare   = float64(mixBlock-mixNew-mixRevisit) / mixBlock
	// evictMargin is how many cold inserts beyond the memory slots must
	// follow a key before a revisit counts on it being evicted; it covers
	// the reordering of up to nproc requests in flight.
	evictMargin = 8
	// preseedSpare is how many pre-seeded keys are already evicted when
	// measurement starts, so revisits have candidates from the first
	// request on.
	preseedSpare = 16
)

func newMixStream(seed int64, slots int) *mixStream {
	rng := rand.New(rand.NewSource(seed))
	s := &mixStream{rng: rng, seed: seed, slots: slots, deck: newDeck(rng, mixBlock-mixNew-mixRevisit, mixNew, mixRevisit)}
	// Rings, meshes and tori rebuild in well under a millisecond; the
	// random graphs cost O(n²) to regenerate from their spec on every hit.
	s.hot = []topo{
		ring(1024), ring(1536), ring(2048),
		mesh(32, 32), mesh(32, 48), mesh(32, 64),
		torus(32, 32), torus(32, 48), torus(32, 64),
		random(1024, seed*1000+1), random(1024, seed*1000+2), random(1024, seed*1000+3),
	}
	s.hotDk = newDeck(rng, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	for n := 1025; n < 2048; n++ {
		if n != 1536 {
			s.ringSizes = append(s.ringSizes, n)
		}
	}
	s.rng.Shuffle(len(s.ringSizes), func(i, j int) {
		s.ringSizes[i], s.ringSizes[j] = s.ringSizes[j], s.ringSizes[i]
	})
	return s
}

// newColdTopo draws a never-used cold topology: random graphs of n in
// [1024, 1280) with a per-key seed, or rings of an unused size in
// (1024, 2048).
func (s *mixStream) newColdTopo() topo {
	k := len(s.cold)
	if s.rng.Intn(4) == 0 && len(s.ringSizes) > 0 {
		n := s.ringSizes[len(s.ringSizes)-1]
		s.ringSizes = s.ringSizes[:len(s.ringSizes)-1]
		return ring(n)
	}
	return random(1024+s.rng.Intn(256), s.seed*1_000_000+10_000+int64(k))
}

// preseed returns the cold keys set-up builds before the hot set, in
// order. With the memory tier sized hot + slots, all but the last slots
// of them are on disk only when measurement starts.
func (s *mixStream) preseed() []topo {
	n := s.slots + evictMargin + preseedSpare
	out := make([]topo, n)
	for i := range out {
		out[i] = s.newColdTopo()
		s.cold = append(s.cold, coldKey{t: out[i], insertedAt: i - n})
	}
	return out
}

func (s *mixStream) next() *request {
	r := &request{ID: s.nextID, Kind: opSummary}
	s.nextID++
	switch s.deck.draw() {
	case 0:
		r.Class, r.Topo = "hot", s.hot[s.hotDk.draw()]
		return r
	case 2:
		var eligible []int
		for i, k := range s.cold {
			if !k.revisited && k.insertedAt <= s.coldInserts-(s.slots+evictMargin) {
				eligible = append(eligible, i)
			}
		}
		if len(eligible) > 0 {
			i := eligible[s.rng.Intn(len(eligible))]
			s.cold[i].revisited = true
			s.coldInserts++
			r.Class, r.Topo = "revisit", s.cold[i].t
			return r
		}
	}
	t := s.newColdTopo()
	s.cold = append(s.cold, coldKey{t: t, insertedAt: s.coldInserts})
	s.coldInserts++
	r.Class, r.Topo = "new", t
	return r
}

// replayStream generates serve-replay traffic over plans built during
// set-up: 85% round windows, uniform over each plan's rounds, and 15%
// executions under seeded link loss.
type replayStream struct {
	rng     *rand.Rand
	deck    *deck // window or execute
	winDk   *deck // which window plan
	execDk  *deck // which execute plan
	windows []topo
	rounds  []int // rounds of windows[i]'s plan
	execs   []topo
	nextID  int
}

// Shape of serve-replay: each block of replayBlock requests holds exactly
// replayExecs executions; the rest are windows of windowCount rounds.
const (
	replayBlock = 20
	replayExecs = 3
	windowCount = 1
)

// fixedGraphSeed draws the one random-2048 graph that serve-replay pages
// and lib-pipeline runs, whatever the workload seed. The planner's sweep
// prunes some random graphs of that size far better than others, so a
// per-seed graph would make set-up time a property of the seed; the seed
// still picks every window offset and every loss pattern.
const fixedGraphSeed = 2048

// replayPlans returns the window and execute plan sets for a seed. Window
// plans are deep (ring, line: height n/2) and shallow (random: height
// about 4; mesh: height 32); execute plans have n in 256–512. Windows are
// dealt 3:3:6:5 in that order, so deep plans get about a third of them and
// the window median falls inside the mesh windows rather than on the gap
// between the shallow and deep costs.
func replayPlans(seed int64) (windows, execs []topo) {
	windows = []topo{ring(1024), line(1024), random(2048, fixedGraphSeed), mesh(32, 32)}
	execs = []topo{mesh(16, 16), random(256, seed*1000+6), mesh(16, 24), random(384, seed*1000+7), random(512, seed*1000+8)}
	return windows, execs
}

func newReplayStream(seed int64, rounds []int) *replayStream {
	w, e := replayPlans(seed)
	rng := rand.New(rand.NewSource(seed))
	return &replayStream{
		rng: rng, deck: newDeck(rng, replayBlock-replayExecs, replayExecs),
		winDk: newDeck(rng, 3, 3, 6, 5), execDk: newDeck(rng, 1, 1, 1, 1, 1),
		windows: w, rounds: rounds, execs: e,
	}
}

func (s *replayStream) next() *request {
	r := &request{ID: s.nextID}
	s.nextID++
	if s.deck.draw() == 0 {
		i := s.winDk.draw()
		r.Kind, r.Class, r.Topo = opWindow, "window", s.windows[i]
		r.From, r.Count = s.rng.Intn(s.rounds[i]-windowCount+1), windowCount
		return r
	}
	r.Kind, r.Class, r.Topo = opExecute, "execute", s.execs[s.execDk.draw()]
	r.LossSeed = s.rng.Int63()
	return r
}

// libJobs is lib-pipeline's fixed job list for a seed: a deep plan
// (ring-512, height 256), a mid-depth one (mesh 32×32, height 32) and a
// shallow one (random n = 2048, height about 4), each with its own loss
// seed.
func libJobs(seed int64) []libJob {
	rng := rand.New(rand.NewSource(seed))
	ts := []topo{ring(512), mesh(32, 32), random(2048, fixedGraphSeed)}
	jobs := make([]libJob, len(ts))
	for i, t := range ts {
		jobs[i] = libJob{Topo: t, LossSeed: rng.Int63()}
	}
	return jobs
}

type libJob struct {
	Topo     topo
	LossSeed int64
}
