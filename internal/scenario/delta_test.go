package scenario

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fsr/internal/analysis"
	"fsr/internal/smt"
	"fsr/internal/spp"
)

// classicAnalyze is the independent test oracle: the §III-B conversion,
// the classic §IV-B constraint generation and native solve, and the
// Conversion's suspect lookup.
func classicAnalyze(ctx context.Context, in *spp.Instance) (analysis.Result, []spp.Node, error) {
	conv, err := in.ToAlgebra()
	if err != nil {
		return analysis.Result{}, nil, err
	}
	res, err := analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
	if err != nil {
		return analysis.Result{}, nil, err
	}
	return res, conv.SuspectNodes(res.Core), nil
}

// requireDeltaParity checks the delta path and VerifyFull each agree bit
// for bit with the classic oracle on the verifier's current instance.
func requireDeltaParity(t *testing.T, label string, v *spp.DeltaVerifier) {
	t.Helper()
	ctx := context.Background()
	want, wantSus, wantErr := classicAnalyze(ctx, v.Snapshot())
	for _, path := range []struct {
		name   string
		verify func(context.Context) (analysis.Result, []spp.Node, error)
	}{{"delta", v.Verify}, {"full", v.VerifyFull}} {
		got, gotSus, gotErr := path.verify(ctx)
		l := label + " (" + path.name + ")"
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, oracle %v", l, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if got.Sat != want.Sat {
			t.Fatalf("%s: Sat = %v, oracle %v", l, got.Sat, want.Sat)
		}
		if got.NumPreference != want.NumPreference || got.NumMonotonicity != want.NumMonotonicity {
			t.Fatalf("%s: counts (%d pref, %d mono), oracle (%d, %d)",
				l, got.NumPreference, got.NumMonotonicity, want.NumPreference, want.NumMonotonicity)
		}
		if !reflect.DeepEqual(got.Model, want.Model) {
			t.Fatalf("%s: model %v, oracle %v", l, got.Model, want.Model)
		}
		if !reflect.DeepEqual(got.Core, want.Core) {
			t.Fatalf("%s: core %v, oracle %v", l, got.Core, want.Core)
		}
		if fmt.Sprint(gotSus) != fmt.Sprint(wantSus) {
			t.Fatalf("%s: suspects %v, oracle %v", l, gotSus, wantSus)
		}
	}
}

// TestDeltaVerifierScenarioSeeds drives the delta verifier over procedurally
// generated instances of every scenario kind — gadget splices, Gao-Rexford
// policies, iBGP route-reflection configurations, and the rest — applying
// a generic edit sequence (ranking rotation and restoration, session
// failure) and asserting parity with the classic oracle after every step.
func TestDeltaVerifierScenarioSeeds(t *testing.T) {
	for _, kind := range Kinds() {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s-%d", kind, seed), func(t *testing.T) {
				sc, err := Generate(kind, seed)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				v, err := spp.NewDeltaVerifier(sc.Instance)
				if err != nil {
					t.Fatalf("NewDeltaVerifier: %v", err)
				}
				requireDeltaParity(t, "initial", v)

				// Rotate the ranking of the first node holding at least two
				// paths, then restore it.
				in := v.Snapshot()
				var target spp.Node
				var original []spp.Path
				for _, n := range in.Nodes {
					if paths := in.Permitted[n]; len(paths) >= 2 {
						target, original = n, paths
						break
					}
				}
				if target != "" {
					rotated := append(append([]spp.Path(nil), original[1:]...), original[0])
					if err := v.ReRank(target, rotated...); err != nil {
						t.Fatalf("rerank %s: %v", target, err)
					}
					requireDeltaParity(t, "rotated "+string(target), v)
					if err := v.ReRank(target, original...); err != nil {
						t.Fatalf("restore %s: %v", target, err)
					}
					requireDeltaParity(t, "restored "+string(target), v)
				}

				// Fail the first session (unless it is the only one: the
				// empty-topology algebra is a degenerate oracle error case
				// covered elsewhere).
				if len(in.Links) > 2 {
					l := in.Links[0]
					if err := v.DropSession(l.From, l.To); err != nil {
						t.Fatalf("drop %s: %v", l, err)
					}
					requireDeltaParity(t, "dropped "+l.String(), v)
				}
			})
		}
	}
}
