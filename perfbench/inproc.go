package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	mg "multigossip"
	"multigossip/internal/core"
	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/obs"
	"multigossip/internal/plancache"
	"multigossip/internal/planstore"
	"multigossip/internal/repair"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// reply is what an in-process replay of one request produced; the traced
// and untraced replays must agree on every field but the source, and with
// gossipd's answer on rounds, radius, window hash and coverage.
type reply struct {
	source   string
	rounds   int
	radius   int
	window   uint64
	coverage float64
	complete bool
}

func (a reply) sameAnswer(b reply) bool {
	return a.rounds == b.rounds && a.radius == b.radius && a.window == b.window &&
		a.coverage == b.coverage && a.complete == b.complete
}

// server is one in-process stand-in for a gossipd replica: it serves a
// request with the calls gossipd's handlers make, in the same order.
type server interface {
	serve(r *request) (reply, error)
}

// facadeServer makes exactly the public-API calls of gossipd's /plan and
// /execute handlers: build the network, fingerprint it, ask the plan cache
// (memory, then the disk store, then a build), then page rounds or execute
// under faults. It is the untraced reference for the traced replay.
type facadeServer struct {
	cache *mg.PlanCache
}

func newFacadeServer(dir string, entries int) *facadeServer {
	store := mg.OpenPlanStore(dir)
	return &facadeServer{cache: mg.NewPlanCache(mg.WithCacheCapacity(entries), mg.WithCacheStore(store))}
}

func (f *facadeServer) serve(r *request) (reply, error) {
	nw, err := r.Topo.build()
	if err != nil {
		return reply{}, err
	}
	_ = nw.Fingerprint() // the handler reports it
	p, src, err := f.cache.PlanSourced(nw)
	if err != nil {
		return reply{}, err
	}
	out := reply{source: src.String(), rounds: p.Rounds(), radius: p.Radius()}
	switch r.Kind {
	case opWindow:
		_, _, out.window = expectedWindow(p, r.From, r.Count)
	case opExecute:
		rep, err := p.ExecuteWithFaults(mg.WithLinkLoss(linkLoss, r.LossSeed), mg.WithRepairBudget(repairBudget))
		if err != nil {
			return reply{}, err
		}
		out.coverage, out.complete = rep.FinalCoverage, rep.Complete
	}
	return out, nil
}

// tplan is the traced replay's plan: the layers' own values, with the
// schedule materialised on the first execution as the library does.
type tplan struct {
	g     *graph.Graph
	imp   *implicit.Plan
	sched *schedule.Schedule
}

// tracedServer serves the same requests by calling each layer's public
// functions itself, one span per call: the facade's PlanCache.PlanSourced
// is split into plancache, graph, spantree, implicit and planstore calls,
// and ExecuteWithFaults into materialisation, fault execution and repair.
type tracedServer struct {
	t     *tracer
	cache *plancache.Cache[*tplan]
	stats *layerCounts
}

// layerCounts accumulates the counters the traced layers return.
type layerCounts struct {
	sweeps, sweepBFS, sweepRoots, sweepPruned int
	materialised                              int
	materialisedBytes                         int64
	executes, dropped                         int
	repairs, repairIters, repairRounds        int
	repaired                                  int
	roundsDeep, roundsShallow                 int
	nsDeep, nsShallow, nsRounds               int64
	deliveries                                int64
	simEvents                                 int64
	simNS                                     int64
}

func newTracedServer(t *tracer, dir string, entries int) *tracedServer {
	reg := obs.NewRegistry()
	s := &tracedServer{t: t, stats: &layerCounts{},
		cache: plancache.New[*tplan](entries, 512<<20, reg)}
	s.cache.AttachTier2(&tracedStore{srv: s, s: planstore.Open(dir, reg, nil)})
	return s
}

// tracedStore is the disk tier of the traced cache: the same payload the
// facade's PlanStore writes (topology, then the implicit plan's wire
// form) through the planstore layer, traced on the server's current tracer.
type tracedStore struct {
	srv *tracedServer
	s   *planstore.Store
}

func (ts *tracedStore) Store(key plancache.Key, p *tplan) {
	var payload []byte
	ts.srv.t.do("implicit.encode", func() {
		edges := p.g.Edges()
		payload = make([]byte, 0, 8+8*len(edges)+p.imp.EncodedLen())
		payload = binary.LittleEndian.AppendUint32(payload, uint32(p.g.N()))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(edges)))
		for _, e := range edges {
			payload = binary.LittleEndian.AppendUint32(payload, uint32(e.U))
			payload = binary.LittleEndian.AppendUint32(payload, uint32(e.V))
		}
		payload = p.imp.AppendBinary(payload)
	})
	ts.srv.t.do("planstore.store", func() { _ = ts.s.Save(key.Fingerprint, key.Algo, payload) }) // a failed write only costs a later rebuild, as in the facade
}

func (ts *tracedStore) Load(key plancache.Key) (*tplan, int64, bool) {
	var payload []byte
	var err error
	ts.srv.t.do("planstore.load", func() { payload, err = ts.s.Load(key.Fingerprint, key.Algo) })
	if err != nil || len(payload) < 8 {
		return nil, 0, false
	}
	var p *tplan
	ts.srv.t.do("implicit.decode", func() {
		n := int(binary.LittleEndian.Uint32(payload[0:4]))
		m := int(binary.LittleEndian.Uint32(payload[4:8]))
		g := graph.New(n)
		for i := 0; i < m; i++ {
			g.AddEdge(int(binary.LittleEndian.Uint32(payload[8+8*i:])), int(binary.LittleEndian.Uint32(payload[12+8*i:])))
		}
		imp, derr := implicit.Decode(payload[8+8*m:])
		if derr == nil {
			p = &tplan{g: g, imp: imp}
		}
	})
	if p == nil {
		return nil, 0, false
	}
	return p, planBytes(p), true
}

// planBytes is what the facade's Plan.SizeBytes charges for an implicit
// plan: the graph snapshot's index and adjacency plus the packed arrays.
func planBytes(p *tplan) int64 {
	return int64(p.g.N())*16 + int64(p.g.M())*16 + p.imp.SizeBytes()
}

// internalGraph builds t's graph with the generators behind cliutil.Build;
// the traced replay checks its fingerprint against the facade network's.
func internalGraph(t topo) (*graph.Graph, error) {
	switch t.Topology {
	case "ring":
		return graph.Cycle(t.N), nil
	case "line":
		return graph.Path(t.N), nil
	case "mesh":
		return graph.Grid(t.Rows, t.Cols), nil
	case "torus":
		return graph.Torus(t.Rows, t.Cols), nil
	case "random":
		return graph.RandomConnected(rand.New(rand.NewSource(t.Seed)), t.N, t.P), nil
	}
	return nil, fmt.Errorf("no internal generator for %q", t.Topology)
}

// buildPlan is PlanGossip split into its layers: minimum-depth sweep,
// labelling, implicit plan.
func (s *tracedServer) buildPlan(g *graph.Graph) (*tplan, error) {
	var (
		tree *spantree.Tree
		st   graph.SweepStats
		err  error
	)
	s.t.do("graph.sweep", func() { tree, st, err = spantree.MinDepthWithStats(g) })
	if err != nil {
		return nil, err
	}
	s.stats.sweeps++
	s.stats.sweepBFS += st.Completed
	s.stats.sweepRoots += st.Roots
	s.stats.sweepPruned += st.Pruned
	var l *spantree.Labeled
	s.t.do("spantree.label", func() { l = spantree.Label(tree) })
	var imp *implicit.Plan
	s.t.do("implicit.build", func() { imp = implicit.New(l) })
	return &tplan{g: g, imp: imp}, nil
}

func (s *tracedServer) serve(r *request) (reply, error) {
	s.t.req = r.ID
	var (
		nw  *mg.Network
		err error
	)
	s.t.do("graph.build", func() { nw, err = r.Topo.build() })
	if err != nil {
		return reply{}, err
	}
	var fp uint64
	s.t.do("graph.fingerprint", func() { fp = nw.Fingerprint() })
	var (
		p   *tplan
		src plancache.Source
	)
	s.t.do("plancache.get", func() {
		p, src, err = s.cache.Get(plancache.Key{Fingerprint: fp, Algo: int(mg.ConcurrentUpDown)}, func() (*tplan, int64, error) {
			var g *graph.Graph
			var gerr error
			s.t.do("graph.snapshot", func() {
				if g, gerr = internalGraph(r.Topo); gerr == nil && g.Fingerprint() != fp {
					gerr = fmt.Errorf("%s: internal graph fingerprint %016x, network %016x", r.Topo, g.Fingerprint(), fp)
				}
			})
			if gerr != nil {
				return nil, 0, gerr
			}
			p, berr := s.buildPlan(g)
			if berr != nil {
				return nil, 0, berr
			}
			return p, planBytes(p), nil
		})
	})
	if err != nil {
		return reply{}, err
	}
	out := reply{source: src.String(), rounds: p.imp.Rounds(), radius: p.imp.Height()}
	switch r.Kind {
	case opWindow:
		out.window = s.window(p, r.From, r.Count)
	case opExecute:
		out.coverage, out.complete, err = s.execute(p, r.LossSeed)
	}
	return out, err
}

// window pages rounds [from, from+count) through implicit.Plan.RoundAppend
// with gossipd's clamping, one span per round.
func (s *tracedServer) window(p *tplan, from, count int) uint64 {
	rounds := p.imp.Rounds()
	from = min(from, rounds)
	count = min(count, rounds-from)
	out := make([][]wireTx, 0, count)
	var buf []schedule.Transmission
	for t := from; t < from+count; t++ {
		out = append(out, s.round(p, t, &buf))
	}
	return windowHash(from, out)
}

// round evaluates one round inside an implicit.round span and returns it
// in wire form.
func (s *tracedServer) round(p *tplan, t int, buf *[]schedule.Transmission) []wireTx {
	id := s.t.begin("implicit.round")
	*buf = p.imp.RoundAppend(t, (*buf)[:0])
	s.t.end(id)
	sp := s.t.spans[id]
	ns := int64(sp.end - sp.start)
	n, h := p.imp.N(), p.imp.Height()
	switch {
	case h >= n/4:
		s.stats.roundsDeep++
		s.stats.nsDeep += ns
	case h <= 8:
		s.stats.roundsShallow++
		s.stats.nsShallow += ns
	}
	s.stats.nsRounds += ns
	r := make([]wireTx, len(*buf))
	for i, tx := range *buf {
		s.stats.deliveries += int64(len(tx.To))
		r[i] = wireTx{Message: tx.Msg, From: tx.From, To: append([]int(nil), tx.To...)}
	}
	return r
}

// materialise builds the Θ(n²) schedule once per plan, as the facade does
// on a plan's first execution.
func (s *tracedServer) materialise(p *tplan) {
	if p.sched != nil {
		return
	}
	var l *spantree.Labeled
	s.t.do("implicit.labeled", func() { l = p.imp.Labeled() })
	s.t.do("core.materialise", func() { p.sched = core.RemapToOriginal(core.BuildConcurrentUpDown(l), l) })
	s.stats.materialised++
	b := int64(len(p.sched.Rounds)) * 24
	for _, r := range p.sched.Rounds {
		for _, tx := range r {
			b += 40 + 8*int64(len(tx.To))
		}
	}
	s.stats.materialisedBytes += b
}

// execute is ExecuteWithFaults split into materialisation, fault.ExecuteTraced
// and repair.Run, with the facade's progress observer attached.
func (s *tracedServer) execute(p *tplan, lossSeed int64) (float64, bool, error) {
	s.materialise(p)
	inj := fault.Compose{fault.LinkLoss{P: linkLoss, Seed: lossSeed}}
	n := p.g.N()
	ro := obs.Multi(nil, obs.NewProgressCollector(n, n*n))
	var (
		holds   []*schedule.Bitset
		dropped int
		err     error
	)
	s.t.do("fault.execute", func() { holds, dropped, err = fault.ExecuteTraced(p.g, p.sched, inj, nil, 0, nil, ro) })
	if err != nil {
		return 0, false, err
	}
	s.stats.executes++
	s.stats.dropped += dropped
	var out repair.Outcome
	s.t.do("repair.run", func() {
		out, err = repair.Run(p.g, holds, repair.Options{
			MaxIterations: repairBudget,
			Injector:      inj,
			RoundOffset:   p.sched.Time(),
			Validate:      true,
			Observer:      ro,
		})
	})
	if err != nil {
		return 0, false, err
	}
	s.stats.repairs++
	s.stats.repairIters += out.Iterations
	s.stats.repairRounds += out.Rounds
	s.stats.repaired += out.Repaired
	return fault.Coverage(out.Holds), out.Complete, nil
}
