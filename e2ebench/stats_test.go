package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"fsr/internal/scenario"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		pm   int
		want float64
	}{{500, 50}, {800, 80}, {950, 95}, {990, 99}, {999, 100}, {1, 1}} {
		if got := percentile(xs, tc.pm); got != tc.want {
			t.Errorf("p%g of 1..100 = %v, want %v", float64(tc.pm)/10, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 990); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 500)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestTailRule: a tail percentile is reported only with at least ten
// samples above it, and minSamples is the exact threshold.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct{ pm, min int }{{999, 10000}, {990, 1000}, {950, 200}, {900, 100}, {800, 50}, {750, 40}, {500, 20}} {
		if got := minSamples(tc.pm); got != tc.min {
			t.Errorf("minSamples(p%g) = %d, want %d", float64(tc.pm)/10, got, tc.min)
		}
		if b := beyond(tc.min, tc.pm); b < tailBeyond {
			t.Errorf("p%g with %d samples leaves %d beyond", float64(tc.pm)/10, tc.min, b)
		}
		if b := beyond(tc.min-1, tc.pm); b >= tailBeyond {
			t.Errorf("p%g with %d samples already leaves %d beyond", float64(tc.pm)/10, tc.min-1, b)
		}
	}
}

// TestFailAccounting: errors and wrong answers both count as failed
// against the attempts; only wrong answers (or failed post-run checks)
// make a run incorrect.
func TestFailAccounting(t *testing.T) {
	var a tally
	a.ok(1, 3)
	a.ok(16, 40) // a batch: 16 units of work, one latency sample
	a.fail(2, false, "refused")
	a.fail(1, true, "wrong verdict")
	if a.attempted != 20 || a.failed != 3 || a.wrong != 1 || a.ops != 17 || len(a.latMS) != 2 {
		t.Fatalf("tally = %+v", a)
	}
	if got := a.failFrac(); got != 3.0/20 {
		t.Fatalf("failFrac = %v, want 0.15", got)
	}
	var b tally
	b.ok(1, 5)
	b.merge(&a)
	if b.attempted != 21 || b.failed != 3 || b.wrong != 1 || len(b.latMS) != 3 || len(b.problems) != 2 {
		t.Fatalf("merged tally = %+v", b)
	}
	units := map[string]string{"ok_frac": "frac"}
	if r := makeResult(&b, true, map[string]float64{"ok_frac": 1 - b.failFrac()}, units); r.Correct || r.Failed != 3 || r.Attempted != 21 {
		t.Errorf("wrong answer: result %+v", r)
	}
	var c tally
	c.ok(4, 1)
	c.fail(1, false, "timeout")
	r := makeResult(&c, true, map[string]float64{"ok_frac": 1 - c.failFrac()}, units)
	if !r.Correct || r.Failed != 1 || r.Metrics["ok_frac"].Value != 0.8 {
		t.Errorf("error without wrong answers: result %+v", r)
	}
	if r := makeResult(&c, false, nil, units); r.Correct {
		t.Error("a failed post-run check must make the run incorrect")
	}
	var empty tally
	if empty.failFrac() != 0 {
		t.Error("failFrac of nothing attempted should be 0")
	}
}

// TestFingerprintStability: the same seed hashes the same inputs, another
// seed other inputs, for every workload.
func TestFingerprintStability(t *testing.T) {
	if testing.Short() {
		t.Skip("generates internet:50000 instances")
	}
	plans := map[string]func(seed int64) (string, error){
		"serve-whatif": func(seed int64) (string, error) {
			w, err := planServe(seed)
			if err != nil {
				return "", err
			}
			return w.fingerprint(), nil
		},
		"campaign-mixed": func(seed int64) (string, error) {
			w, err := setupCampaign(context.Background(), seed)
			if err != nil {
				return "", err
			}
			return w.fingerprint(), nil
		},
		"internet-analyze": func(seed int64) (string, error) {
			w, err := setupInternet(context.Background(), seed)
			if err != nil {
				return "", err
			}
			return w.fingerprint(), nil
		},
	}
	for _, w := range workloads {
		plan := plans[w.name]
		if plan == nil {
			t.Fatalf("%s: no fingerprint test", w.name)
		}
		a, err := plan(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plan(1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := plan(2)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 1 hashed to %s and then %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both hashed to %s", w.name, a)
		}
	}
}

func TestCompareRefusesOtherInputs(t *testing.T) {
	a := record{Workload: "internet-analyze", Fingerprint: "aa"}
	if err := comparable(a, a); err != nil {
		t.Errorf("identical records refused: %v", err)
	}
	b := a
	b.Fingerprint = "bb"
	if comparable(a, b) == nil {
		t.Error("records with different fingerprints compared")
	}
	b = a
	b.Trace = true
	if comparable(a, b) == nil {
		t.Error("traced and untraced records compared")
	}
}

func TestDiffExact(t *testing.T) {
	a := map[string]float64{"engine.messages": 10, "smt.probes": 3}
	if d := diffExact(a, map[string]float64{"engine.messages": 10, "smt.probes": 3}); d != "" {
		t.Errorf("equal counts differ: %s", d)
	}
	if diffExact(a, map[string]float64{"engine.messages": 11, "smt.probes": 3}) == "" {
		t.Error("changed count not reported")
	}
	if diffExact(a, map[string]float64{"engine.messages": 10}) == "" {
		t.Error("missing count not reported")
	}
}

// TestCanonicalHash: undoing a session drop re-appends the session, so the
// snapshot hash must not depend on session order or direction.
func TestCanonicalHash(t *testing.T) {
	j := scenario.InstanceJSON{
		Name: "x", Nodes: []string{"a", "b", "c"}, Origins: []string{"r1"},
		Sessions: []scenario.SessionJSON{{A: "a", B: "b"}, {A: "c", B: "b"}},
		Rank:     map[string][]string{"a": {"a,r1"}},
	}
	k := j
	k.Sessions = []scenario.SessionJSON{{A: "b", B: "c"}, {A: "a", B: "b"}}
	if canonicalHash(j) != canonicalHash(k) {
		t.Error("session order changed the canonical hash")
	}
	k.Rank = map[string][]string{"a": {"a,b,r1"}}
	if canonicalHash(j) == canonicalHash(k) {
		t.Error("a ranking change kept the canonical hash")
	}
}

// TestLayerNamesMatchKinds: a per-kind campaign metric exists for every
// kind the campaign runs, and no other.
func TestLayerNamesMatchKinds(t *testing.T) {
	n := 0
	for name := range layerUnits {
		if strings.HasPrefix(name, "scenario.kind_ms.") {
			n++
		}
	}
	kinds := campaignKinds()
	if n != len(kinds) {
		t.Fatalf("%d per-kind metrics for %d kinds", n, len(kinds))
	}
	for _, k := range kinds {
		if _, ok := layerUnits["scenario.kind_ms."+string(k)]; !ok {
			t.Errorf("no per-kind metric for %s", k)
		}
	}
}
