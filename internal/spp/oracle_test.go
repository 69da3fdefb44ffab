package spp

import (
	"context"
	"fmt"
	"testing"

	"fsr/internal/analysis"
	"fsr/internal/smt"
)

// classicAnalyze is the independent test oracle for the one SPP pipeline:
// the §III-B algebra conversion, the classic §IV-B constraint generator
// and solve on the given solver, and the Conversion's suspect lookup.
func classicAnalyze(ctx context.Context, in *Instance, solver smt.Solver) (analysis.Result, []Node, error) {
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

// requireSameAnalysis fails unless two analyses agree bit for bit: error
// message, result header, verdict, constraint counts, model, core order,
// and suspect nodes (Stats excluded: durations and graph sizes
// legitimately differ between solve paths).
func requireSameAnalysis(t testing.TB, label string,
	got analysis.Result, gotSus []Node, gotErr error,
	want analysis.Result, wantSus []Node, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Algebra != want.Algebra || got.Condition != want.Condition {
		t.Fatalf("%s: header (%s, %s), oracle (%s, %s)",
			label, got.Algebra, got.Condition, want.Algebra, want.Condition)
	}
	if got.Sat != want.Sat {
		t.Fatalf("%s: Sat = %v, oracle %v", label, got.Sat, want.Sat)
	}
	if got.NumPreference != want.NumPreference || got.NumMonotonicity != want.NumMonotonicity {
		t.Fatalf("%s: counts (%d pref, %d mono), oracle (%d, %d)",
			label, got.NumPreference, got.NumMonotonicity, want.NumPreference, want.NumMonotonicity)
	}
	if len(got.Model) != len(want.Model) {
		t.Fatalf("%s: model size %d, oracle %d\n got: %v\nwant: %v",
			label, len(got.Model), len(want.Model), got.Model, want.Model)
	}
	for k, val := range want.Model {
		if gv, ok := got.Model[k]; !ok || gv != val {
			t.Fatalf("%s: model[%s] = %d (present %v), oracle %d", label, k, gv, ok, val)
		}
	}
	if len(got.Core) != len(want.Core) {
		t.Fatalf("%s: core size %d, oracle %d\n got: %v\nwant: %v",
			label, len(got.Core), len(want.Core), got.Core, want.Core)
	}
	for i := range want.Core {
		if got.Core[i] != want.Core[i] {
			t.Fatalf("%s: Core[%d] = %v, oracle %v", label, i, got.Core[i], want.Core[i])
		}
	}
	if fmt.Sprint(gotSus) != fmt.Sprint(wantSus) {
		t.Fatalf("%s: suspects %v, oracle %v", label, gotSus, wantSus)
	}
}
