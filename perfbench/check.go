package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	mg "multigossip"
)

// oracle is the benchmark's own view of every generated topology, computed
// in process from the generated input and never from gossipd's answers:
// the radius comes from Network.Metrics (a full eccentricity sweep, not
// the planner's pruned one), and window contents from Plan.RoundAppend.
type oracle struct {
	mu sync.Mutex
	m  map[topo]*truth
}

type truth struct {
	once sync.Once
	err  error
	n    int
	rad  int
	fp   string
	plan *mg.Plan // for window contents; nil until a window asks
	pmu  sync.Mutex
}

func newOracle() *oracle { return &oracle{m: map[topo]*truth{}} }

func (or *oracle) get(t topo) (*truth, error) {
	or.mu.Lock()
	tr, ok := or.m[t]
	if !ok {
		tr = &truth{}
		or.m[t] = tr
	}
	or.mu.Unlock()
	tr.once.Do(func() {
		nw, err := t.build()
		if err != nil {
			tr.err = err
			return
		}
		m, err := nw.Metrics()
		if err != nil {
			tr.err = err
			return
		}
		tr.n, tr.rad, tr.fp = nw.Processors(), m.Radius, fmt.Sprintf("%016x", nw.Fingerprint())
	})
	return tr, tr.err
}

// planOf returns an in-process plan for t, built once.
func (or *oracle) planOf(t topo) (*mg.Plan, error) {
	tr, err := or.get(t)
	if err != nil {
		return nil, err
	}
	tr.pmu.Lock()
	defer tr.pmu.Unlock()
	if tr.plan == nil {
		nw, err := t.build()
		if err != nil {
			return nil, err
		}
		if tr.plan, err = nw.PlanGossip(); err != nil {
			return nil, err
		}
	}
	return tr.plan, nil
}

// wireRound mirrors one transmission of a gossipd window response.
type wireTx struct {
	Message int   `json:"message"`
	From    int   `json:"from"`
	To      []int `json:"to"`
}

// answer is the union of the response fields the checks read.
type answer struct {
	Fingerprint   string     `json:"fingerprint"`
	Processors    int        `json:"processors"`
	Radius        int        `json:"radius"`
	Rounds        int        `json:"rounds"`
	Source        string     `json:"source"`
	Schedule      [][]wireTx `json:"schedule"`
	RoundsFrom    *int       `json:"rounds_from"`
	RoundsCount   *int       `json:"rounds_count"`
	Complete      bool       `json:"complete"`
	FinalCoverage float64    `json:"final_coverage"`
}

// windowHash hashes a window of rounds starting at from: round index,
// then each transmission's message, sender and receivers, in order.
func windowHash(from int, rounds [][]wireTx) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		for i := range buf {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i, r := range rounds {
		put(-1 - (from + i))
		for _, tx := range r {
			put(tx.Message)
			put(tx.From)
			put(len(tx.To))
			for _, d := range tx.To {
				put(d)
			}
		}
	}
	return h.Sum64()
}

// expectedWindow evaluates rounds [from, from+count) of p in process, with
// gossipd's clamping, and returns the clamped bounds and the content hash.
func expectedWindow(p *mg.Plan, from, count int) (int, int, uint64) {
	if from > p.Rounds() {
		from = p.Rounds()
	}
	if max := p.Rounds() - from; count > max {
		count = max
	}
	rounds := make([][]wireTx, 0, count)
	var buf []mg.Transmission
	for t := from; t < from+count; t++ {
		buf = p.RoundAppend(t, buf[:0])
		r := make([]wireTx, len(buf))
		for i, tx := range buf {
			r[i] = wireTx{Message: tx.Message, From: tx.From, To: append([]int(nil), tx.To...)}
		}
		rounds = append(rounds, r)
	}
	return from, count, windowHash(from, rounds)
}

// check validates one answered request against the oracle. Every
// operation is checked: a summary must report rounds = n + radius with
// the oracle's radius and fingerprint, a window must also carry exactly
// the in-process rounds, and an execution must complete with full
// coverage.
func (or *oracle) check(o *outcome) error {
	if o.err != nil {
		return o.err
	}
	tr, err := or.get(o.req.Topo)
	if err != nil {
		return fmt.Errorf("oracle for %s: %w", o.req.Topo, err)
	}
	var a answer
	if err := json.Unmarshal(o.body, &a); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	switch {
	case a.Processors != tr.n || a.Radius != tr.rad || a.Rounds != tr.n+tr.rad:
		return fmt.Errorf("%s: n=%d radius=%d rounds=%d, want n=%d radius=%d rounds=%d",
			o.req.Topo, a.Processors, a.Radius, a.Rounds, tr.n, tr.rad, tr.n+tr.rad)
	case a.Fingerprint != tr.fp:
		return fmt.Errorf("%s: fingerprint %s, want %s", o.req.Topo, a.Fingerprint, tr.fp)
	}
	switch o.req.Kind {
	case opWindow:
		p, err := or.planOf(o.req.Topo)
		if err != nil {
			return err
		}
		from, count, want := expectedWindow(p, o.req.From, o.req.Count)
		if a.RoundsFrom == nil || a.RoundsCount == nil || *a.RoundsFrom != from || *a.RoundsCount != count {
			return fmt.Errorf("%s: window echo %v/%v, want %d/%d", o.req.Topo, a.RoundsFrom, a.RoundsCount, from, count)
		}
		if got := windowHash(from, a.Schedule); got != want {
			return fmt.Errorf("%s: window [%d,+%d) hash %016x, want %016x", o.req.Topo, from, count, got, want)
		}
	case opExecute:
		if !a.Complete || a.FinalCoverage != 1 {
			return fmt.Errorf("%s: execute complete=%v final_coverage=%v, want true and 1", o.req.Topo, a.Complete, a.FinalCoverage)
		}
	}
	return nil
}

// checkAll checks every outcome on procs goroutines and returns the
// number that failed plus the first few failures.
func (or *oracle) checkAll(outs []*outcome, procs int) (failed int, samples []string) {
	errs := make([]error, len(outs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = or.check(outs[i])
			}
		}()
	}
	for i := range outs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			failed++
			if len(samples) < 5 {
				samples = append(samples, fmt.Sprintf("request %d (%s): %v", outs[i].req.ID, outs[i].req.Class, err))
			}
		}
	}
	return failed, samples
}
