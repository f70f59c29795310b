package implicit_test

import (
	"math/rand"
	"reflect"
	"testing"

	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// FuzzImplicitRound checks the closed-form evaluator against the
// materialising builder on arbitrary inputs: for a random connected graph,
// the implicit plan's RoundAppend must be bit-identical to the built
// schedule's round at a fuzzer-chosen time (including out-of-range times,
// which must yield the empty round), and a fuzzer-chosen vertex's
// Timetable must match the materialised VertexView. The same time then
// seeds a seek-then-step sequence: a fresh cursor seeks to it and steps a
// fuzzer-chosen number of rounds past it, and the plan's own RoundAppend
// steps alongside it; every round must match the builder. Finally the
// seeks bytes, two per target, drive a fresh cursor and RoundAppend
// through arbitrary targets, forward and backward, on that plan and on a
// deep random tree of up to 96 vertices labelled from an arbitrary root.
func FuzzImplicitRound(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(128), uint16(3), uint8(0), []byte{})
	f.Add(int64(42), uint8(0), uint8(0), uint16(0), uint8(5), []byte{0, 9, 0, 3, 1, 0})
	f.Add(int64(-9), uint8(47), uint8(255), uint16(65535), uint8(200), []byte{255, 255, 0, 0, 0, 1, 0, 2})
	f.Add(int64(2026), uint8(2), uint8(10), uint16(1), uint8(1), []byte{7, 7, 7, 7})
	f.Add(int64(7), uint8(95), uint8(3), uint16(40), uint8(9), []byte{0, 150, 0, 20, 0, 21, 0, 90, 0, 0, 1, 44})
	f.Fuzz(func(t *testing.T, seed int64, nRaw, pRaw uint8, tRaw uint16, vRaw uint8, seeks []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%48
		p := float64(pRaw) / 255
		g := graph.RandomConnected(rng, n, p)
		tree, err := spantree.MinDepth(g)
		if err != nil {
			t.Fatalf("MinDepth on a connected graph: %v", err)
		}
		l := spantree.Label(tree)
		plan := implicit.New(l)
		s := oracle(l)
		if plan.Rounds() != s.Time() {
			t.Fatalf("n=%d: implicit rounds %d != materialised %d", n, plan.Rounds(), s.Time())
		}
		// Map tRaw over [-1, rounds+1] so out-of-range times are exercised.
		round := int(tRaw)%(plan.Rounds()+3) - 1
		got := plan.RoundAppend(round, nil)
		var want []schedule.Transmission
		if round >= 0 && round < len(s.Rounds) {
			want = s.Rounds[round]
		}
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d round %d:\ngot  %v\nwant %v", n, round, got, want)
			}
		}
		c := plan.Cursor()
		steps := 1 + int(vRaw>>3)%(plan.Height()+3)
		for r := round; r <= round+steps; r++ {
			var want []schedule.Transmission
			if r >= 0 && r < len(s.Rounds) {
				want = s.Rounds[r]
			}
			gotCursor := []schedule.Transmission(c.RoundAt(r))
			if (len(gotCursor) != 0 || len(want) != 0) && !reflect.DeepEqual(gotCursor, want) {
				t.Fatalf("n=%d cursor seek %d, round %d:\ngot  %v\nwant %v", n, round, r, gotCursor, want)
			}
			gotPlan := plan.RoundAppend(r, nil)
			if (len(gotPlan) != 0 || len(want) != 0) && !reflect.DeepEqual(gotPlan, want) {
				t.Fatalf("n=%d RoundAppend after %d, round %d:\ngot  %v\nwant %v", n, round, r, gotPlan, want)
			}
		}
		v := int(vRaw) % n
		gotTT := plan.Timetable(v)
		wantTT := schedule.VertexView(s, treeInOriginalIDs(l), v)
		if !reflect.DeepEqual(gotTT, wantTT) {
			t.Fatalf("n=%d vertex %d:\ngot  %+v\nwant %+v", n, v, gotTT, wantTT)
		}
		if len(seeks) < 2 {
			return
		}
		assertSeekTargets(t, "min-depth", l, seeks)
		assertSeekTargets(t, "deep", spantree.Label(deepTree(rng, 1+int(nRaw)%96)), seeks)
	})
}

// deepTree returns a random tree on n vertices that is mostly one long
// chain (each vertex hangs off its predecessor three times in four, off a
// uniform earlier vertex otherwise), with shuffled vertex ids and rooted
// at the first vertex of the shuffle.
func deepTree(rng *rand.Rand, n int) *spantree.Tree {
	perm := rng.Perm(n)
	parent := make([]int, n)
	parent[perm[0]] = -1
	for i := 1; i < n; i++ {
		up := i - 1
		if rng.Intn(4) == 0 {
			up = rng.Intn(i)
		}
		parent[perm[i]] = perm[up]
	}
	return spantree.MustFromParents(parent)
}

// assertSeekTargets moves a fresh cursor and a fresh plan's RoundAppend
// through the targets encoded two bytes each in seeks (at most 64 of them,
// mapped over [-1, rounds+1]) and compares every round with the builder.
func assertSeekTargets(t *testing.T, name string, l *spantree.Labeled, seeks []byte) {
	t.Helper()
	plan := implicit.New(l)
	s := oracle(l)
	c := plan.Cursor()
	for i := 0; i+1 < len(seeks) && i < 128; i += 2 {
		r := (int(seeks[i])<<8|int(seeks[i+1]))%(plan.Rounds()+3) - 1
		want := oracleRound(s, r)
		if got := c.RoundAt(r); !sameRound(got, want) {
			t.Fatalf("%s n=%d height %d: cursor target %d:\ngot  %v\nwant %v", name, l.N(), l.T.Height, r, got, want)
		}
		if got := plan.RoundAppend(r, nil); !sameRound(got, want) {
			t.Fatalf("%s n=%d height %d: RoundAppend target %d:\ngot  %v\nwant %v", name, l.N(), l.T.Height, r, got, want)
		}
	}
}
