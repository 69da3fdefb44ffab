package main

import (
	"math"
	"sort"
)

// Percentiles are carried in per-mille (950 = p95, 999 = p99.9) so the
// rank arithmetic is exact integer arithmetic.

// tailBeyond is how many samples must lie above a tail percentile for it
// to be reported: fewer than this and the "tail" is one or two outliers.
const tailBeyond = 10

// rank is the 1-based nearest rank of the pm-th per-mille percentile of n
// samples: the smallest rank with at least pm/1000 of the samples at or
// below it.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked strictly above the pm-th percentile.
func beyond(n, pm int) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, pm)
}

// percentile returns the nearest-rank pm-th per-mille percentile of
// ascending-sorted xs (NaN when empty).
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), pm)-1]
}

// minSamples is the smallest sample count that puts at least tailBeyond
// samples above the pm-th percentile.
func minSamples(pm int) int {
	n := 1
	for beyond(n, pm) < tailBeyond {
		n++
	}
	return n
}

// median of a copy of xs (NaN when empty).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally counts one phase's operations. Every attempted operation ends as
// exactly one of: completed with the right answer (a latency sample),
// failed (error, refusal, timeout), or wrong (completed with an answer
// that contradicts the one known by construction). Wrong answers count as
// failures too.
type tally struct {
	attempted int64
	failed    int64
	wrong     int64
	// ops counts completed units of work (requests, scenarios or
	// analyses), which for batched workloads exceeds len(latMS).
	ops   int64
	latMS []float64
	// problems keeps the first few failure descriptions for the log.
	problems []string
}

const maxProblems = 8

func (t *tally) ok(ops int64, lat float64) {
	t.attempted += ops
	t.ops += ops
	t.latMS = append(t.latMS, lat)
}

// fail records n failed units of work; wrong marks an answer that
// contradicts the expected one (as opposed to an error or refusal).
func (t *tally) fail(n int64, wrong bool, why string) {
	t.attempted += n
	t.failed += n
	if wrong {
		t.wrong += n
	}
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, why)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.ops += o.ops
	t.latMS = append(t.latMS, o.latMS...)
	for _, p := range o.problems {
		if len(t.problems) < maxProblems {
			t.problems = append(t.problems, p)
		}
	}
}

// failFrac is failures over attempts (0 when nothing was attempted).
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
