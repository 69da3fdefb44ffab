package fsr

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fsr/internal/analysis"
	"fsr/internal/scenario"
	"fsr/internal/smt"
	"fsr/internal/spp"
	"fsr/internal/topology"
)

// classicAnalyzeSPP is the independent test oracle for AnalyzeSPP: the
// §III-B conversion, the classic §IV-B constraint generation and solve on
// the given solver, and the Conversion's suspect lookup.
func classicAnalyzeSPP(ctx context.Context, in *spp.Instance, solver smt.Solver) (analysis.Result, []spp.Node, error) {
	conv, err := in.ToAlgebra()
	if err != nil {
		return analysis.Result{}, nil, err
	}
	res, err := analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, solver)
	if err != nil {
		return analysis.Result{}, nil, err
	}
	return res, conv.SuspectNodes(res.Core), nil
}

// requireClassicSPP runs AnalyzeSPP on a session over solver and fails
// unless error, verdict, model, core order, suspects, and constraint
// counts are bit-identical to the classic oracle on the same solver.
func requireClassicSPP(t *testing.T, ctx context.Context, label string, in *spp.Instance, solver smt.Solver) AnalysisResult {
	t.Helper()
	want, wantSus, wantErr := classicAnalyzeSPP(ctx, in, solver)
	got, sus, err := NewSession(WithSolver(solver), WithParallelism(2)).AnalyzeSPP(ctx, in)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, classic %v", label, err, wantErr)
	}
	if err != nil {
		return got
	}
	if got.Sat != want.Sat || !reflect.DeepEqual(got.Model, want.Model) || !reflect.DeepEqual(got.Core, want.Core) {
		t.Fatalf("%s: diverges from classic (sat %v vs %v)\n got: %v\nwant: %v", label, got.Sat, want.Sat, got, want)
	}
	if got.NumPreference != want.NumPreference || got.NumMonotonicity != want.NumMonotonicity {
		t.Fatalf("%s: counts (%d,%d), classic (%d,%d)", label,
			got.NumPreference, got.NumMonotonicity, want.NumPreference, want.NumMonotonicity)
	}
	if !reflect.DeepEqual(sus, wantSus) {
		t.Fatalf("%s: suspects %v, classic %v", label, sus, wantSus)
	}
	return got
}

// differentialSolvers are the backends AnalyzeSPP is pinned on: both
// native engines (dense solve), the native engine without core
// minimization, and the Yices text round trip (sharded constraints).
var differentialSolvers = []smt.Solver{
	smt.Native{}, smt.Decomposed{}, smt.Native{NoMinimize: true}, smt.YicesText{},
}

// TestSessionScalePath: AnalyzeSPP takes one pipeline at every size, and
// nothing observable differs from the classic conversion. Checked on a
// sat power-law instance and on the same instance with an injected
// dispute (unsat, exercising the provenance re-solve and the suspect set),
// both past the size where a node-count switch used to sit.
func TestSessionScalePath(t *testing.T) {
	ctx := context.Background()
	g := topology.GenerateInternet(3, topology.InternetParams{N: 700})
	instances := []*spp.Instance{scenario.InternetSPP("scale-sat", g, 3)}
	unsafe := scenario.InternetSPP("scale-unsat", g, 3)
	e := g.Edges[0]
	unsafe.Rank(spp.Node(e.A), spp.Path{spp.Node(e.A), spp.Node(e.B), "rx_b"}, spp.Path{spp.Node(e.A), "rx_a"})
	unsafe.Rank(spp.Node(e.B), spp.Path{spp.Node(e.B), spp.Node(e.A), "rx_a"}, spp.Path{spp.Node(e.B), "rx_b"})
	unsafe.AddOrigin("rx_a")
	unsafe.AddOrigin("rx_b")
	instances = append(instances, unsafe)

	for _, in := range instances {
		got := requireClassicSPP(t, ctx, in.Name, in, smt.Native{})
		if got.Stats.Components == 0 {
			t.Fatalf("%s: dense path not taken (no condensation stats)", in.Name)
		}
	}
}

// TestScaleEligibility: the solver type alone selects the solve — the
// native engines with core minimization get the dense SCC solve at every
// size, every other backend gets the sharded constraints on itself — and
// the answer is the classic one either way.
func TestScaleEligibility(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		solver smt.Solver
		dense  bool
	}{
		{smt.Native{}, true},
		{smt.Decomposed{}, true},
		{smt.Native{NoMinimize: true}, false},
		{smt.YicesText{}, false},
	} {
		for _, in := range []*spp.Instance{spp.Figure3IBGPFixed(), spp.ChainGadget(600)} {
			label := fmt.Sprintf("%s on %s%+v", in.Name, tc.solver.Name(), tc.solver)
			got := requireClassicSPP(t, ctx, label, in, tc.solver)
			if dense := got.Stats.Components > 0; dense != tc.dense {
				t.Errorf("%s: dense solve %v, want %v", label, dense, tc.dense)
			}
		}
	}
}

// TestAnalyzeSPPDifferential pins AnalyzeSPP to the classic oracle on the
// widened differential set — every built-in gadget, the naming-collision
// and invalid instances, and three seeds of every scenario kind — under
// every differential solver.
func TestAnalyzeSPPDifferential(t *testing.T) {
	ctx := context.Background()
	corpus := []*spp.Instance{
		spp.Figure3IBGP(), spp.Figure3IBGPFixed(), spp.Disagree(),
		spp.BadGadget(), spp.GoodGadget(), spp.ChainGadget(16),
	}
	san := spp.NewInstance("sanitize-collision")
	san.AddSession("x.y", "x_y", 0)
	san.AddSession("x.y", "z", 0)
	san.AddSession("x_y", "z", 0)
	san.Rank("x.y", spp.Path{"x.y", "o.1"})
	san.Rank("x_y", spp.Path{"x_y", "o_1"})
	san.Rank("z", spp.Path{"z", "x_y", "o_1"}, spp.Path{"z", "x.y", "o.1"})
	dup := spp.NewInstance("equal-rendering")
	dup.AddSession("a", "b", 0)
	dup.Rank("a", spp.Path{"a", "r1"}, spp.Path{"a", "b", "r1"})
	dup.Rank("b", spp.Path{"b", "r1"})
	dupSession := spp.BadGadget()
	dupSession.AddSession("1", "2", 0)
	corpus = append(corpus, san, dup, dupSession)
	for _, kind := range scenario.Kinds() {
		for seed := int64(1); seed <= 3; seed++ {
			sc, err := scenario.Generate(kind, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			corpus = append(corpus, sc.Instance)
		}
	}
	for _, solver := range differentialSolvers {
		for i, in := range corpus {
			requireClassicSPP(t, ctx, fmt.Sprintf("#%d %s on %s%+v", i, in.Name, solver.Name(), solver), in, solver)
		}
	}
}

// TestAnalyzeSPPDuplicateSession: a repeated session is a validation error
// on every path, at gadget size and past the former node-count switch.
func TestAnalyzeSPPDuplicateSession(t *testing.T) {
	ctx := context.Background()
	small := spp.BadGadget()
	small.AddSession("1", "2", 0)
	large := spp.ChainGadget(600)
	large.AddSession("n1", "n2", 0)
	for _, in := range []*spp.Instance{small, large} {
		_, _, err := NewSession().AnalyzeSPP(ctx, in)
		if err == nil || !strings.Contains(err.Error(), "duplicate link") {
			t.Fatalf("%s: AnalyzeSPP err=%v, want duplicate link", in.Name, err)
		}
		if _, openErr := NewSession().OpenDeltaVerifier(in); fmt.Sprint(openErr) != err.Error() {
			t.Fatalf("%s: OpenDeltaVerifier err=%v, want %v", in.Name, openErr, err)
		}
	}
}

// TestAnalyzeAllParallelSpeedup asserts the batch fan-out actually scales:
// parallelism=4 must beat serial by >1.5× on the constraint-generation-
// bound batch. Timing-sensitive, so it only runs when FSR_SPEEDUP_TEST is
// set (the CI bench job exports it on a multi-core runner); plain test
// runs and single-core hosts skip.
func TestAnalyzeAllParallelSpeedup(t *testing.T) {
	if os.Getenv("FSR_SPEEDUP_TEST") == "" {
		t.Skip("set FSR_SPEEDUP_TEST=1 to run the timing assertion")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs ≥4 CPUs, have %d", runtime.GOMAXPROCS(0))
	}
	ctx := context.Background()
	batch := analyzeAllBatch(t)
	measure := func(par int) time.Duration {
		sess := NewSession(WithParallelism(par))
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := sess.AnalyzeAll(ctx, batch...); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	measure(1) // warm caches and pools
	serial := measure(1)
	par := measure(4)
	speedup := float64(serial) / float64(par)
	t.Logf("AnalyzeAll batch: serial %v, parallelism=4 %v, speedup %.2fx", serial, par, speedup)
	if speedup < 1.5 {
		t.Fatalf("parallel fan-out speedup %.2fx < 1.5x (serial %v, parallel %v)", speedup, serial, par)
	}
}
