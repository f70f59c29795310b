package main

import "math"

// The max-rate search walks one fixed geometric ladder of offered rates,
// the same on every run and commit, so a reported rate is always a rung
// and two runs compare rung for rung. Steps are 5%.
const (
	ladderBase = 20.0 // requests/s at rung 0
	ladderStep = 1.05
	ladderTop  = 90 // highest rung, about 1600 requests/s
	// gallop is the upward stride while no failing rung is known: two
	// rungs is 1.1×, so a knee within that of the first passing probe is
	// pinned to one rung in two more.
	gallop = 2
)

func rungRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// rungAtOrBelow is the highest rung whose rate does not exceed rate.
func rungAtOrBelow(rate float64) int {
	k := int(math.Floor(math.Log(rate/ladderBase)/math.Log(ladderStep) + 1e-9))
	return max(0, min(k, ladderTop))
}

// searchLadder returns the highest rung at which pass holds, assuming pass
// holds up to some knee and fails above it. known seeds results already
// measured (the fixed-rate phase sits on a rung); hint, when it lies
// between the known results, is probed first, so an estimate of the knee
// saves probes. At most probes new rungs are tried; when the budget runs
// out the highest rung known to pass is returned. -1 means no rung passed.
func searchLadder(known map[int]bool, hint, probes int, pass func(k int) bool) int {
	good, bad := -1, ladderTop+1
	for k, ok := range known {
		if ok && k > good {
			good = k
		}
		if !ok && k < bad {
			bad = k
		}
	}
	for ; probes > 0 && bad-good > 1; probes-- {
		// Gallop upward from a known pass while the ceiling is unknown, so
		// a knee near the start costs few probes; bisect once bracketed.
		mid := (good + bad) / 2
		switch {
		case hint > good && hint < bad:
			mid = hint
		case good >= 0 && bad > ladderTop:
			mid = min(ladderTop, good+gallop)
		}
		hint = -1
		if pass(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	return good
}
