package spp

import (
	"context"
	"fmt"
	"testing"

	"fsr/internal/smt"
)

// requireVerifyParity runs the delta path, VerifyFull, and the classic
// test oracle on the verifier's current instance and fails unless all
// three agree bit for bit.
func requireVerifyParity(t *testing.T, label string, v *DeltaVerifier) {
	t.Helper()
	ctx := context.Background()
	want, wantSus, wantErr := classicAnalyze(ctx, v.in, smt.Native{})
	got, gotSus, gotErr := v.Verify(ctx)
	requireSameAnalysis(t, label+" (delta)", got, gotSus, gotErr, want, wantSus, wantErr)
	full, fullSus, fullErr := v.VerifyFull(ctx)
	requireSameAnalysis(t, label+" (full)", full, fullSus, fullErr, want, wantSus, wantErr)
}

// gadgetOp is one scripted edit in a table-driven parity sequence.
type gadgetOp struct {
	name  string
	apply func(v *DeltaVerifier) error
}

func rerank(n string, paths ...Path) gadgetOp {
	return gadgetOp{
		name:  "rerank " + n,
		apply: func(v *DeltaVerifier) error { return v.ReRank(Node(n), paths...) },
	}
}

func dropSession(a, b string) gadgetOp {
	return gadgetOp{
		name:  fmt.Sprintf("drop %s-%s", a, b),
		apply: func(v *DeltaVerifier) error { return v.DropSession(Node(a), Node(b)) },
	}
}

func addSession(a, b string, cost int) gadgetOp {
	return gadgetOp{
		name:  fmt.Sprintf("add %s-%s", a, b),
		apply: func(v *DeltaVerifier) error { return v.AddSession(Node(a), Node(b), cost) },
	}
}

// TestDeltaVerifierGadgets drives edit sequences over the gadget library
// and checks delta-vs-oracle parity after every step. The sequences cross
// the safe/unsafe boundary in both directions: Figure 3's broken reflector
// cycle is repaired the way Figure3IBGPFixed does (and broken again),
// GOODGADGET is morphed into BADGADGET's dispute wheel, sessions fail and
// recover.
func TestDeltaVerifierGadgets(t *testing.T) {
	cases := []struct {
		name string
		in   *Instance
		ops  []gadgetOp
	}{
		{
			name: "fig3-repair-and-break",
			in:   Figure3IBGP(),
			ops: []gadgetOp{
				// The Figure3IBGPFixed repair, one reflector at a time.
				rerank("a", P("a", "d", "r1"), P("a", "b", "e", "r2")),
				rerank("b", P("b", "e", "r2"), P("b", "c", "f", "r3")),
				rerank("c", P("c", "f", "r3"), P("c", "a", "d", "r1")),
				// Break reflector a again (the paper's broken ranking).
				rerank("a", P("a", "b", "e", "r2"), P("a", "d", "r1")),
			},
		},
		{
			name: "disagree-session-failure",
			in:   Disagree(),
			ops: []gadgetOp{
				// Losing the only session prunes both indirect paths.
				dropSession("1", "2"),
				// Recovery: session back, rankings restored.
				addSession("1", "2", 0),
				rerank("1", P("1", "2", "r2"), P("1", "r1")),
				rerank("2", P("2", "1", "r1"), P("2", "r2")),
			},
		},
		{
			name: "goodgadget-to-badgadget",
			in:   GoodGadget(),
			ops: []gadgetOp{
				// Rerank node by node until this is BADGADGET's wheel.
				rerank("1", P("1", "2", "r2"), P("1", "r1")),
				rerank("2", P("2", "3", "r3"), P("2", "r2")),
				rerank("3", P("3", "1", "r1"), P("3", "r3")),
				// And break the wheel at node 2.
				rerank("2", P("2", "r2"), P("2", "3", "r3")),
			},
		},
		{
			name: "chain-extend",
			in:   ChainGadget(6),
			ops: []gadgetOp{
				// Mid-chain preference flip: prefer the relay over the direct
				// route.
				rerank("n3", P("n3", "n4", "r4"), P("n3", "r3")),
				// Graft a new node onto the chain's tail.
				addSession("n5", "n6", 0),
				rerank("n6", P("n6", "n5", "r5")),
				// Session failure mid-chain prunes the relay path of n2.
				dropSession("n2", "n3"),
			},
		},
		{
			name: "badgadget-collapse",
			in:   BadGadget(),
			ops: []gadgetOp{
				dropSession("1", "2"),
				dropSession("2", "3"),
			},
		},
	}
	deltaSolves := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := NewDeltaVerifier(tc.in)
			if err != nil {
				t.Fatalf("NewDeltaVerifier: %v", err)
			}
			requireVerifyParity(t, "initial", v)
			for _, op := range tc.ops {
				if err := op.apply(v); err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				requireVerifyParity(t, op.name, v)
			}
			deltaSolves += v.DeltaStats().DeltaSolves
		})
	}
	// Sequences that go unsat solve on the full path by design, but the
	// table as a whole must exercise the incremental path.
	if deltaSolves == 0 {
		t.Error("no case recorded a delta solve")
	}
}

// TestDeltaVerifierClone commits an edit on a clone and checks the original
// is untouched — the server's what-if discard path.
func TestDeltaVerifierClone(t *testing.T) {
	v, err := NewDeltaVerifier(Figure3IBGP())
	if err != nil {
		t.Fatal(err)
	}
	requireVerifyParity(t, "base", v)
	c := v.Clone()
	// Apply the full Figure3IBGPFixed repair to the clone only.
	if err := c.ReRank("a", P("a", "d", "r1"), P("a", "b", "e", "r2")); err != nil {
		t.Fatal(err)
	}
	if err := c.ReRank("b", P("b", "e", "r2"), P("b", "c", "f", "r3")); err != nil {
		t.Fatal(err)
	}
	if err := c.ReRank("c", P("c", "f", "r3"), P("c", "a", "d", "r1")); err != nil {
		t.Fatal(err)
	}
	requireVerifyParity(t, "clone after repair", c)
	requireVerifyParity(t, "original after clone edit", v)
	res, _, err := c.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat {
		t.Fatal("repaired clone should be safe")
	}
	res, sus, err := v.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat {
		t.Fatal("original must stay unsafe")
	}
	if len(sus) == 0 {
		t.Fatal("unsafe verdict should implicate suspect nodes")
	}
}

// TestDeltaVerifierRejectsInvalid checks edits that would make the instance
// invalid are rejected without mutating state.
func TestDeltaVerifierRejectsInvalid(t *testing.T) {
	v, err := NewDeltaVerifier(Disagree())
	if err != nil {
		t.Fatal(err)
	}
	before, _, _ := v.Verify(context.Background())
	bad := []error{
		v.ReRank("1", P("1", "9", "r9")), // missing link 1→9
		v.ReRank("1", P("2", "1", "r1")), // not owned by node
		v.ReRank("1", P("1")),            // too short
		v.DropSession("1", "9"),          // no such session
		v.AddSession("1", "2", 0),        // already exists
		v.AddSession("1", "1", 0),        // self session
	}
	for i, err := range bad {
		if err == nil {
			t.Fatalf("invalid edit %d accepted", i)
		}
	}
	after, _, _ := v.Verify(context.Background())
	if before.Sat != after.Sat || len(before.Model) != len(after.Model) {
		t.Fatal("rejected edits mutated state")
	}
	requireVerifyParity(t, "after rejections", v)
}

// TestDeltaVerifierDegraded forces a signature-rendering collision (two
// egress paths over the same origin token), checks Verify falls back to the
// full pipeline, and checks the verifier recovers once the collision is
// edited away.
func TestDeltaVerifierDegraded(t *testing.T) {
	in := NewInstance("degraded")
	in.AddSession("a", "b", 0)
	in.Rank("a", P("a", "r1"))
	in.Rank("b", P("b", "a", "r1"))
	v, err := NewDeltaVerifier(in)
	if err != nil {
		t.Fatal(err)
	}
	if v.Degraded() {
		t.Fatal("clean instance reported degraded")
	}
	requireVerifyParity(t, "clean", v)

	// b now also claims an egress path over r1: both [a r1] and [b r1]
	// render as signature r1, which ToAlgebra rejects.
	if err := v.ReRank("b", P("b", "r1"), P("b", "a", "r1")); err != nil {
		t.Fatal(err)
	}
	if !v.Degraded() {
		t.Fatal("duplicate rendering not detected")
	}
	if _, _, err := v.Verify(context.Background()); err == nil {
		t.Fatal("degraded Verify should surface the oracle's duplicate-path error")
	}

	// Edit the collision away: the verifier must recover and agree with the
	// oracle again on the incremental path.
	if err := v.ReRank("b", P("b", "a", "r1")); err != nil {
		t.Fatal(err)
	}
	if v.Degraded() {
		t.Fatal("collision removal did not clear degraded mode")
	}
	requireVerifyParity(t, "recovered", v)
	res, _, err := v.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat {
		t.Fatal("recovered instance should be safe")
	}
}

// TestDeltaVerifierSanitizeCollision: a sanitization collision ("o.1" vs
// "o_1") degrades the verifier; Verify then runs the pipeline, which
// suffixes the names exactly as the classic conversion does. Editing the
// collision away recovers the incremental path on unsuffixed names.
func TestDeltaVerifierSanitizeCollision(t *testing.T) {
	in := NewInstance("sanitize-collision")
	in.AddSession("x.y", "x_y", 0)
	in.AddSession("x.y", "z", 0)
	in.AddSession("x_y", "z", 0)
	in.Rank("x.y", P("x.y", "o.1"))
	in.Rank("x_y", P("x_y", "o_1"))
	in.Rank("z", P("z", "x_y", "o_1"), P("z", "x.y", "o.1"))
	v, err := NewDeltaVerifier(in)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Degraded() {
		t.Fatal("sanitization collision not detected")
	}
	requireVerifyParity(t, "collided", v)
	if err := v.ReRank("x_y", P("x_y", "o2")); err != nil {
		t.Fatal(err)
	}
	if err := v.ReRank("z", P("z", "x_y", "o2"), P("z", "x.y", "o.1")); err != nil {
		t.Fatal(err)
	}
	if v.Degraded() {
		t.Fatal("collision removal did not clear degraded mode")
	}
	requireVerifyParity(t, "recovered", v)
}

// TestDeltaVerifierDuplicateSession: a repeated session fails to load with
// the classic conversion's error (it used to load and answer a verdict
// its own oracle could not reproduce), and a live verifier refuses to add
// a link that repeats an existing link or its label.
func TestDeltaVerifierDuplicateSession(t *testing.T) {
	in := BadGadget()
	in.AddSession("1", "2", 0)
	_, wantErr := in.ToAlgebra()
	if _, err := NewDeltaVerifier(in); err == nil || err.Error() != fmt.Sprint(wantErr) {
		t.Fatalf("NewDeltaVerifier err=%v, want %v", err, wantErr)
	}

	clash := NewInstance("label-clash")
	clash.AddSession("ab", "c", 0)
	clash.Rank("ab", P("ab", "r1"))
	clash.Rank("c", P("c", "ab", "r1"))
	v, err := NewDeltaVerifier(clash)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AddSession("c", "ab", 0); err == nil {
		t.Fatal("repeated session accepted")
	}
	if err := v.AddSession("a", "bc", 0); err == nil {
		t.Fatal("session repeating link label l_abc accepted")
	}
	requireVerifyParity(t, "after rejections", v)
}
