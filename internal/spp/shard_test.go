// Differential tests for the sharded constraint generator and the
// internet-scale analysis fast path: both must be indistinguishable from
// the classic ToAlgebra pipeline on everything the classic pipeline can
// decide — element-wise constraint buffers, verdicts, models, minimized
// cores, and §VI-B suspect sets.
//
// External test package: the scenario generators used as a corpus import
// spp, so an internal test file would create an import cycle.
package spp_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fsr/internal/analysis"
	"fsr/internal/scenario"
	"fsr/internal/smt"
	"fsr/internal/spp"
	"fsr/internal/topology"
)

// collisionInstances are the naming edge cases the pipeline must decide
// exactly as the classic conversion does.
func collisionInstances() []*spp.Instance {
	// Two egress nodes ranking the bare origin path produce the same
	// rendering ("r1") for distinct permitted paths: ToAlgebra's
	// duplicate-permitted-path error.
	dup := spp.NewInstance("dup-rendering")
	dup.AddOrigin("r1")
	dup.AddSession("a", "b", 0)
	dup.Rank("a", spp.Path{"a", "r1"}, spp.Path{"a", "b", "r1"})
	dup.Rank("b", spp.Path{"b", "r1"})

	// Sanitization collisions: "o.1" and "o_1" (and the paths through
	// "x.y" and "x_y" extending them) render differently but map to the
	// same solver variables, which the classic path suffixes (_2). The
	// third node's paths extend both, so the suffixed variables appear in
	// preference and monotonicity constraints.
	san := spp.NewInstance("sanitize-collision")
	san.AddSession("x.y", "x_y", 0)
	san.AddSession("x.y", "z", 0)
	san.AddSession("x_y", "z", 0)
	san.Rank("x.y", spp.Path{"x.y", "o.1"})
	san.Rank("x_y", spp.Path{"x_y", "o_1"})
	san.Rank("z", spp.Path{"z", "x_y", "o_1"}, spp.Path{"z", "x.y", "o.1"})

	// A suffix that itself collides: the third path's base name is the
	// second path's suffixed name, so it takes _2's successor.
	chainSan := spp.NewInstance("suffix-chain")
	chainSan.AddSession("p", "q", 0)
	chainSan.Rank("p", spp.Path{"p", "o.1"}, spp.Path{"p", "o_1_2"})
	chainSan.Rank("q", spp.Path{"q", "o_1"}, spp.Path{"q", "p", "o_1_2"})

	// Unsat under a collision: DISAGREE with sanitize-colliding origins.
	sanUnsat := spp.NewInstance("sanitize-unsat")
	sanUnsat.AddSession("1", "2", 0)
	sanUnsat.Rank("1", spp.Path{"1", "2", "o_x"}, spp.Path{"1", "o.x"})
	sanUnsat.Rank("2", spp.Path{"2", "1", "o.x"}, spp.Path{"2", "o_x"})

	// Degenerate shapes: no links, and links without permitted paths.
	empty := spp.NewInstance("no-links")
	empty.AddOrigin("r1")
	empty.AddNode("a")
	bare := spp.NewInstance("no-paths")
	bare.AddSession("a", "b", 0)

	return []*spp.Instance{dup, san, chainSan, sanUnsat, empty, bare}
}

// invalidInstances are structurally invalid: each must fail with the
// classic conversion's error.
func invalidInstances() []*spp.Instance {
	missing := spp.NewInstance("missing-link")
	missing.AddOrigin("r1")
	missing.AddSession("a", "b", 0)
	missing.Rank("a", spp.Path{"a", "c", "r1"})

	// BADGADGET with its 1↔2 session added a second time.
	dupSession := spp.BadGadget()
	dupSession.Name = "duplicate-session"
	dupSession.AddSession("1", "2", 0)

	// Distinct links whose labels render alike: l_ab+c = l_a+bc.
	label := spp.NewInstance("label-collision")
	label.AddSession("ab", "c", 0)
	label.AddSession("a", "bc", 0)
	label.Rank("ab", spp.Path{"ab", "r1"})
	label.Rank("c", spp.Path{"c", "ab", "r1"})

	undeclared := spp.NewInstance("undeclared-owner")
	undeclared.AddSession("a", "b", 0)
	undeclared.Rank("a", spp.Path{"a", "r1"})
	undeclared.Permitted["ghost"] = []spp.Path{{"ghost", "r1"}}

	noOrigin := spp.NewInstance("no-origin")
	noOrigin.AddSession("a", "b", 0)
	noOrigin.Permitted["a"] = []spp.Path{{"a", "b", "zz"}}

	return []*spp.Instance{missing, dupSession, label, undeclared, noOrigin}
}

// shardCorpus collects every built-in gadget, the naming edge cases, the
// invalid instances, three seeds of every scenario kind (both verdicts),
// and one mid-size power-law instance for the differential tests.
func shardCorpus(t *testing.T) map[string]*spp.Instance {
	t.Helper()
	corpus := map[string]*spp.Instance{
		"figure3-ibgp":       spp.Figure3IBGP(),
		"figure3-ibgp-fixed": spp.Figure3IBGPFixed(),
		"disagree":           spp.Disagree(),
		"bad-gadget":         spp.BadGadget(),
		"good-gadget":        spp.GoodGadget(),
		"chain-64":           spp.ChainGadget(64),
	}
	for _, in := range append(collisionInstances(), invalidInstances()...) {
		corpus[in.Name] = in
	}
	for _, kind := range scenario.Kinds() {
		for seed := int64(1); seed <= 3; seed++ {
			sc, err := scenario.Generate(kind, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			corpus[fmt.Sprintf("%s-%d", kind, seed)] = sc.Instance
		}
	}
	// One mid-size power-law instance, beyond campaign scale but still
	// cheap enough for the classic pipeline to cross-check.
	g := topology.GenerateInternet(42, topology.InternetParams{N: 600})
	corpus["internet-600"] = scenario.InternetSPP("internet-600", g, 3)
	return corpus
}

// TestShardedConstraintsMatchClassic: the sharded generator's buffer is
// element-for-element identical — assertion, origin, kind, provenance —
// to analysis.Constraints over the converted algebra.
func TestShardedConstraintsMatchClassic(t *testing.T) {
	for name, in := range shardCorpus(t) {
		var want []analysis.Constraint
		conv, wantErr := in.ToAlgebra()
		if wantErr == nil {
			want, wantErr = analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity)
		}
		for _, workers := range []int{1, 4} {
			got, ok, err := spp.ShardedConstraints(in, workers)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || ok != (err == nil) {
				t.Fatalf("%s w=%d: sharded gen: ok=%v err=%v, classic err=%v", name, workers, ok, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s w=%d: %d constraints, classic %d", name, workers, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s w=%d: constraint %d differs:\n%+v\nvs\n%+v", name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAnalyzeScaleMatchesClassic: the pipeline reproduces the classic
// Result (verdict, model, minimized core, counts), suspect set, and error
// bit-identically on every corpus instance, through AnalyzeScale and
// through Analyze on every solver backend.
func TestAnalyzeScaleMatchesClassic(t *testing.T) {
	ctx := context.Background()
	solvers := []smt.Solver{smt.Native{}, smt.Decomposed{}, smt.Native{NoMinimize: true}, smt.YicesText{}}
	for name, in := range shardCorpus(t) {
		want, wantSus, wantErr := spp.ClassicAnalyze(ctx, in, smt.Native{})
		for _, workers := range []int{1, 4} {
			got, suspects, ok, err := spp.AnalyzeScale(ctx, in, workers)
			if ok != (err == nil) {
				t.Fatalf("%s w=%d: ok=%v with err=%v", name, workers, ok, err)
			}
			label := fmt.Sprintf("%s w=%d", name, workers)
			spp.RequireSameAnalysis(t, label, got, suspects, err, want, wantSus, wantErr)
			if err == nil && (got.Stats.Variables != want.Stats.Variables || got.Stats.Edges != want.Stats.Edges) {
				t.Fatalf("%s: stats vars/edges (%d,%d) vs (%d,%d)", label,
					got.Stats.Variables, got.Stats.Edges, want.Stats.Variables, want.Stats.Edges)
			}
		}
		for _, solver := range solvers {
			want, wantSus, wantErr := spp.ClassicAnalyze(ctx, in, solver)
			got, suspects, err := spp.Analyze(ctx, in, solver, 2)
			spp.RequireSameAnalysis(t, name+" on "+solverLabel(solver), got, suspects, err, want, wantSus, wantErr)
		}
	}
}

func solverLabel(s smt.Solver) string { return fmt.Sprintf("%s%+v", s.Name(), s) }

// TestShardedFallback: instances whose solver-variable names collide are
// decided exactly as the classic pipeline decides them — sanitization
// collisions take the _2 suffix, equal renderings and degenerate shapes
// fail with the conversion's error — instead of being handed back to a
// second pipeline.
func TestShardedFallback(t *testing.T) {
	ctx := context.Background()
	for _, in := range collisionInstances() {
		want, wantSus, wantErr := spp.ClassicAnalyze(ctx, in, smt.Native{})
		got, sus, ok, err := spp.AnalyzeScale(ctx, in, 2)
		if ok != (err == nil) {
			t.Fatalf("%s: ok=%v with err=%v", in.Name, ok, err)
		}
		spp.RequireSameAnalysis(t, in.Name, got, sus, err, want, wantSus, wantErr)
	}
	// The suffixed names really are in play.
	in := collisionInstances()[1]
	res, _, err := spp.Analyze(ctx, in, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Model["r_z_x_y_o_1_2"]; !ok {
		t.Fatalf("%s: no suffixed variable in model %v", in.Name, res.Model)
	}
}

// TestShardedValidation: structurally invalid instances — including a
// duplicated session and distinct links with equal labels — fail with the
// classic conversion's exact error from every entry point.
func TestShardedValidation(t *testing.T) {
	ctx := context.Background()
	for _, in := range invalidInstances() {
		_, wantErr := in.ToAlgebra()
		if wantErr == nil {
			t.Fatalf("%s: classic conversion accepted an invalid instance", in.Name)
		}
		if err := in.Validate(); fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: Validate %v, ToAlgebra %v", in.Name, err, wantErr)
		}
		if _, ok, err := spp.ShardedConstraints(in, 2); ok || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: ShardedConstraints ok=%v err=%v, want %v", in.Name, ok, err, wantErr)
		}
		if _, _, ok, err := spp.AnalyzeScale(ctx, in, 2); ok || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: AnalyzeScale ok=%v err=%v, want %v", in.Name, ok, err, wantErr)
		}
		if _, err := spp.NewDeltaVerifier(in); fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: NewDeltaVerifier err=%v, want %v", in.Name, err, wantErr)
		}
	}
}
