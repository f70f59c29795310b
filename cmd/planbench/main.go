// Command planbench measures the implicit O(n) plan encoding against the
// materialised O(n²) schedule and records the comparison in a
// machine-readable perf record (BENCH_plan.json by default).
//
// For every topology in {ring, grid, random} and every size in -sizes it
// builds the minimum-depth spanning tree once, then times three things from
// that tree: constructing the implicit plan (DFS labelling plus the packed
// interval/level/lip arrays), constructing the materialised schedule (the
// full round-by-round builder plus the remap to original ids), and the
// first-round latency of each — the wall time from holding the tree to
// holding round 0's transmissions. It also reports the resident bytes of
// both encodings and their ratio, the headline of the record: the implicit
// plan answers the same queries bit-identically from ~28n bytes while the
// materialised schedule stores Θ(n²) destination ids. Two query costs
// complete each row: enumerate_all_ns walks every round in order through
// RoundAppend (the plan's cursor steps in O(n) per round), and
// random_round_ns is the mean cost of one round at seeded random offsets
// (most calls land too far from the cursor to step, so they seek, in
// O(n log h)).
//
// Sizes in -big run the implicit side only (the materialised schedule at
// n = 10⁶ would be ~8 TB): a seeded random recursive tree is labelled and
// encoded in memory, proving million-vertex construction fits comfortably
// in RAM and stays O(n) in both time and space.
//
// With -smoke the command runs the CI differential gate instead of the
// benchmark: on a seeded random connected graph at n = 4096 every round of
// the implicit plan is compared bit-for-bit against the materialised
// builder, a sample of vertex timetables is checked against the
// materialised VertexView, the ≥100x byte-ratio acceptance floor is
// asserted, and an n = 10⁵ implicit plan is constructed and probed. It
// then enumerates every round of a ring and of that random graph at
// n = 4096 and fails when the ring's sequential per-round cost exceeds 4x
// the random graph's: per-round cost must not depend on tree height
// (height 2048 against about 5). Last, it fails when a ring-4096 round at
// a seeded random offset (a seek) costs more than 32x an in-order round.
// The Makefile runs this under GOMEMLIMIT so a space regression in either
// encoding fails the gate.
//
//	go run ./cmd/planbench -out BENCH_plan.json
//	GOMEMLIMIT=1GiB go run ./cmd/planbench -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

type record struct {
	Topology                 string  `json:"topology"`
	N                        int     `json:"n"`
	M                        int     `json:"m"`
	Height                   int     `json:"height"`
	Rounds                   int     `json:"rounds"`
	ImplicitBytes            int64   `json:"implicit_bytes"`
	MaterialisedBytes        int64   `json:"materialised_bytes"`
	BytesRatio               float64 `json:"bytes_ratio"`
	ImplicitBuildNs          int64   `json:"implicit_build_ns"`
	MaterialisedBuildNs      int64   `json:"materialised_build_ns"`
	ImplicitFirstRoundNs     int64   `json:"implicit_first_round_ns"`
	MaterialisedFirstRoundNs int64   `json:"materialised_first_round_ns"`
	EnumerateAllNs           int64   `json:"enumerate_all_ns"`
	RoundAppendNsPerRound    int64   `json:"round_append_ns_per_round"`
	RandomRoundNs            int64   `json:"random_round_ns"`
}

type bigRecord struct {
	N              int     `json:"n"`
	Height         int     `json:"height"`
	Rounds         int     `json:"rounds"`
	ImplicitBytes  int64   `json:"implicit_bytes"`
	BytesPerVertex float64 `json:"bytes_per_vertex"`
	BuildNs        int64   `json:"build_ns"`
	FirstRoundNs   int64   `json:"first_round_ns"`
}

type report struct {
	Tool         string      `json:"tool"`
	Benchmark    string      `json:"benchmark"`
	GoMaxProcs   int         `json:"gomaxprocs"`
	NumCPU       int         `json:"num_cpu"`
	GoVersion    string      `json:"go_version"`
	Cases        []record    `json:"cases"`
	ImplicitOnly []bigRecord `json:"implicit_only"`
}

func buildGraph(kind string, n int) *graph.Graph {
	switch kind {
	case "ring":
		return graph.Cycle(n)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return graph.Grid(side, side)
	case "random":
		rng := rand.New(rand.NewSource(int64(n)))
		return graph.RandomConnected(rng, n, 8/float64(n))
	}
	panic("unknown topology " + kind)
}

// randomRecursiveParents is the -big tree generator: vertex i attaches to a
// uniform earlier vertex, giving expected height Θ(log n) so the schedule
// length stays near the paper's n + r bound with small r.
func randomRecursiveParents(rng *rand.Rand, n int) []int {
	parent := make([]int, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = rng.Intn(i)
	}
	return parent
}

// best times f reps times and returns the fastest run in nanoseconds.
func best(reps int, f func()) int64 {
	fastest := int64(math.MaxInt64)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start).Nanoseconds(); d < fastest {
			fastest = d
		}
	}
	return fastest
}

func materialise(l *spantree.Labeled) *schedule.Schedule {
	return core.RemapToOriginal(core.BuildConcurrentUpDown(l), l)
}

func equalRound(got, want []schedule.Transmission) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

func measure(kind string, n, reps int) record {
	g := buildGraph(kind, n)
	tree, err := spantree.MinDepth(g)
	if err != nil {
		panic(err)
	}

	var plan *implicit.Plan
	implicitBuild := best(reps, func() {
		plan = implicit.New(spantree.Label(tree))
	})
	var s *schedule.Schedule
	matBuild := best(reps, func() {
		s = materialise(spantree.Label(tree))
	})

	// First-round latency: tree in hand -> round 0's transmissions readable.
	var buf []schedule.Transmission
	implicitFirst := best(reps, func() {
		p := implicit.New(spantree.Label(tree))
		buf = p.RoundAppend(0, buf[:0])
	})
	var first []schedule.Transmission
	matFirst := best(reps, func() {
		first = materialise(spantree.Label(tree)).Rounds[0]
	})

	// Spot-check equivalence so the record can never describe two encodings
	// that have drifted apart (the test suite owns the exhaustive check).
	for _, t := range []int{0, plan.Rounds() / 2, plan.Rounds() - 1} {
		buf = plan.RoundAppend(t, buf[:0])
		var want []schedule.Transmission
		if t >= 0 && t < len(s.Rounds) {
			want = s.Rounds[t]
		}
		if !equalRound(buf, want) {
			panic(fmt.Sprintf("planbench: %s n=%d round %d diverges from the materialised schedule", kind, n, t))
		}
	}
	_ = first

	rounds := plan.Rounds()
	enumerate := best(reps, func() { enumerateAll(plan) })
	random := randomRound(plan, 64)

	ib, mb := plan.SizeBytes(), s.SizeBytes()
	return record{
		Topology:                 kind,
		N:                        g.N(),
		M:                        g.M(),
		Height:                   tree.Height,
		Rounds:                   rounds,
		ImplicitBytes:            ib,
		MaterialisedBytes:        mb,
		BytesRatio:               float64(mb) / float64(ib),
		ImplicitBuildNs:          implicitBuild,
		MaterialisedBuildNs:      matBuild,
		ImplicitFirstRoundNs:     implicitFirst,
		MaterialisedFirstRoundNs: matFirst,
		EnumerateAllNs:           enumerate,
		RoundAppendNsPerRound:    enumerate / int64(rounds),
		RandomRoundNs:            random,
	}
}

// enumerateAll walks every round of the plan in order through RoundAppend
// with one recycled buffer.
func enumerateAll(p *implicit.Plan) {
	var buf []schedule.Transmission
	for t := 0; t < p.Rounds(); t++ {
		buf = p.RoundAppend(t, buf[:0])
	}
}

// randomRound returns the mean cost of RoundAppend at k seeded random
// offsets: the access pattern of a client paging single rounds.
func randomRound(plan *implicit.Plan, k int) int64 {
	rng := rand.New(rand.NewSource(int64(plan.N())))
	var buf []schedule.Transmission
	start := time.Now()
	for i := 0; i < k; i++ {
		buf = plan.RoundAppend(rng.Intn(plan.Rounds()), buf[:0])
	}
	return time.Since(start).Nanoseconds() / int64(k)
}

// planOf builds the implicit plan of g's minimum-depth spanning tree.
func planOf(g *graph.Graph) (*implicit.Plan, error) {
	tree, err := spantree.MinDepth(g)
	if err != nil {
		return nil, err
	}
	return implicit.New(spantree.Label(tree)), nil
}

// perRound is the sequential per-round cost of p in ns (best of reps).
func perRound(p *implicit.Plan, reps int) float64 {
	return float64(best(reps, func() { enumerateAll(p) })) / float64(p.Rounds())
}

// perRoundGate fails when the ring's sequential per-round cost exceeds
// limit times other's (plans of the same n, best of reps).
func perRoundGate(ring, other *implicit.Plan, limit float64, reps int) error {
	r, o := perRound(ring, reps), perRound(other, reps)
	fmt.Printf("plan-smoke: n=%d sequential RoundAppend %.0f ns/round on a ring, %.0f ns/round on a random graph (%.2fx, limit %.0fx)\n",
		ring.N(), r, o, r/o, limit)
	if r > limit*o {
		return fmt.Errorf("ring per-round cost %.0f ns is %.1fx the random graph's %.0f ns at n=%d (limit %.0fx): round cost depends on tree height",
			r, r/o, o, ring.N(), limit)
	}
	return nil
}

// randomRoundGate fails when a round at a seeded random offset costs more
// than limit times an in-order round of the same plan (best of reps
// each): a seek must stay within a small factor of a step at any height.
func randomRoundGate(p *implicit.Plan, limit float64, reps int) error {
	seq := perRound(p, reps)
	random := math.MaxFloat64
	for i := 0; i < reps; i++ {
		random = min(random, float64(randomRound(p, 64)))
	}
	fmt.Printf("plan-smoke: n=%d height %d RoundAppend %.0f ns at a random offset, %.0f ns in order (%.2fx, limit %.0fx)\n",
		p.N(), p.Height(), random, seq, random/seq, limit)
	if random > limit*seq {
		return fmt.Errorf("random-offset round %.0f ns is %.1fx the in-order round's %.0f ns at n=%d, height %d (limit %.0fx): seeks depend on tree height",
			random, random/seq, seq, p.N(), p.Height(), limit)
	}
	return nil
}

func measureBig(n int) bigRecord {
	rng := rand.New(rand.NewSource(int64(n)))
	parent := randomRecursiveParents(rng, n)
	var plan *implicit.Plan
	buildNs := best(1, func() {
		plan = implicit.New(spantree.Label(spantree.MustFromParents(parent)))
	})
	var buf []schedule.Transmission
	firstNs := best(1, func() {
		buf = plan.RoundAppend(0, buf[:0])
	})
	if len(buf) == 0 {
		panic(fmt.Sprintf("planbench: empty round 0 at n=%d", n))
	}
	return bigRecord{
		N:              plan.N(),
		Height:         plan.Height(),
		Rounds:         plan.Rounds(),
		ImplicitBytes:  plan.SizeBytes(),
		BytesPerVertex: float64(plan.SizeBytes()) / float64(plan.N()),
		BuildNs:        buildNs,
		FirstRoundNs:   firstNs,
	}
}

// smoke is the CI gate: exhaustive round-by-round differential at n = 4096,
// a timetable sample, the 100x byte-ratio floor, and a 10⁵-vertex implicit
// construction. Returns an error instead of writing a record.
func smoke() error {
	const n = 4096
	rng := rand.New(rand.NewSource(n))
	g := graph.RandomConnected(rng, n, 8.0/n)
	tree, err := spantree.MinDepth(g)
	if err != nil {
		return err
	}
	l := spantree.Label(tree)
	plan := implicit.New(l)
	s := materialise(l)
	if plan.Rounds() != s.Time() {
		return fmt.Errorf("rounds %d != materialised %d", plan.Rounds(), s.Time())
	}
	var buf []schedule.Transmission
	for t := 0; t <= plan.Rounds(); t++ {
		buf = plan.RoundAppend(t, buf[:0])
		var want []schedule.Transmission
		if t < len(s.Rounds) {
			want = s.Rounds[t]
		}
		if !equalRound(buf, want) {
			return fmt.Errorf("round %d diverges from the materialised schedule", t)
		}
	}
	origTree := spantree.MustFromParents(treeParentsInOriginalIDs(l))
	for i := 0; i < 8; i++ {
		v := rng.Intn(n)
		if !reflect.DeepEqual(plan.Timetable(v), schedule.VertexView(s, origTree, v)) {
			return fmt.Errorf("timetable of vertex %d diverges from the materialised view", v)
		}
	}
	ib, mb := plan.SizeBytes(), s.SizeBytes()
	if ratio := mb / ib; ratio < 100 {
		return fmt.Errorf("materialised/implicit byte ratio %dx fell below the 100x floor (implicit %d, materialised %d)", ratio, ib, mb)
	}
	fmt.Printf("plan-smoke: n=%d differential ok over %d rounds; implicit %d B vs materialised %d B (%.0fx)\n",
		n, plan.Rounds()+1, ib, mb, float64(mb)/float64(ib))

	const big = 100_000
	r := measureBig(big)
	fmt.Printf("plan-smoke: n=%d implicit construction ok in %s (%d B, %.1f B/vertex, %d rounds)\n",
		big, time.Duration(r.BuildNs), r.ImplicitBytes, r.BytesPerVertex, r.Rounds)
	ring, err := planOf(graph.Cycle(n))
	if err != nil {
		return err
	}
	if err := perRoundGate(ring, plan, 4, 2); err != nil {
		return err
	}
	return randomRoundGate(ring, 32, 2)
}

// treeParentsInOriginalIDs rebuilds the spanning tree's parent array in
// original vertex ids from the labelling, for VertexView.
func treeParentsInOriginalIDs(l *spantree.Labeled) []int {
	parent := make([]int, l.N())
	for v := range parent {
		c := l.LabelOf[v]
		if p := l.T.Parent[c]; p == -1 {
			parent[v] = -1
		} else {
			parent[v] = l.VertexOf[p]
		}
	}
	return parent
}

func parseSizes(flagName, val string) []int {
	var ns []int
	for _, f := range strings.Split(val, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "planbench: bad -%s value %q\n", flagName, f)
			os.Exit(2)
		}
		ns = append(ns, n)
	}
	return ns
}

func main() {
	out := flag.String("out", "BENCH_plan.json", "output path for the perf record")
	sizes := flag.String("sizes", "1024,4096", "comma-separated vertex counts for the implicit-vs-materialised comparison")
	big := flag.String("big", "100000,1000000", "comma-separated vertex counts for implicit-only construction runs (empty to skip)")
	smokeMode := flag.Bool("smoke", false, "run the CI differential gate instead of the benchmark")
	flag.Parse()

	if *smokeMode {
		if err := smoke(); err != nil {
			fmt.Fprintf(os.Stderr, "planbench: smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep := report{
		Tool:       "cmd/planbench",
		Benchmark:  "implicit O(n) plan encoding vs materialised O(n²) schedule: bytes, construction, first-round latency, sequential and random round cost",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	fmt.Printf("%-8s %7s %7s %12s %14s %8s %13s %13s %12s %14s %12s %12s\n",
		"topology", "n", "rounds", "impl bytes", "mat bytes", "ratio", "impl build", "mat build", "impl rd0", "mat rd0", "seq/round", "random")
	for _, kind := range []string{"ring", "grid", "random"} {
		for _, n := range parseSizes("sizes", *sizes) {
			reps := 3
			if n > 2048 {
				reps = 1
			}
			r := measure(kind, n, reps)
			rep.Cases = append(rep.Cases, r)
			fmt.Printf("%-8s %7d %7d %12d %14d %7.0fx %13d %13d %12d %14d %12d %12d\n",
				r.Topology, r.N, r.Rounds, r.ImplicitBytes, r.MaterialisedBytes, r.BytesRatio,
				r.ImplicitBuildNs, r.MaterialisedBuildNs, r.ImplicitFirstRoundNs, r.MaterialisedFirstRoundNs,
				r.RoundAppendNsPerRound, r.RandomRoundNs)
		}
	}
	for _, n := range parseSizes("big", *big) {
		r := measureBig(n)
		rep.ImplicitOnly = append(rep.ImplicitOnly, r)
		fmt.Printf("implicit-only n=%-8d %12d B (%.1f B/vertex)  build %-12s first round %s\n",
			r.N, r.ImplicitBytes, r.BytesPerVertex, time.Duration(r.BuildNs), time.Duration(r.FirstRoundNs))
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "planbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
