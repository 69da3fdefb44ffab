// Delta verification of SPP instances: the bridge between an operator's
// what-if edits (re-rank a router, drop or add a session) and the smt
// package's delta solver. A DeltaVerifier keeps the instance's full
// constraint list resident — organized as one segment per node (its
// pairwise preference chain) followed by one segment per directed link (its
// ⊕ monotonicity entries), exactly the order §IV-B constraint generation
// produces — so an edit regenerates only the segments whose content is a
// function of the touched rankings and splices them into a warm
// smt.DeltaContext. The solver then re-probes only the dispute-digraph
// region those constraints reach.
//
// Correctness is anchored to the one SPP pipeline, not argued
// independently: the initial segments are that pipeline's sharded
// constraint buffer, edits regenerate segments with the same two
// constraint constructors, VerifyFull runs the pipeline afresh as the
// differential oracle, and any instance the mirror cannot name identically
// — a solver-variable name shared by two paths, which the pipeline
// suffixes or rejects — flips the verifier into degraded mode, where
// Verify runs the pipeline instead.

package spp

import (
	"context"
	"fmt"

	"fsr/internal/analysis"
	"fsr/internal/smt"
)

// DeltaVerifier owns a private copy of an SPP instance plus the resident
// solver state needed to re-verify it incrementally after edits. It is not
// safe for concurrent use.
type DeltaVerifier struct {
	in *Instance
	dc *smt.DeltaContext

	// cons mirrors the delta context's assertion list with algebra-level
	// provenance, segmented per segLen: first one segment per node (in
	// Nodes order), then one per directed link (in Links order).
	cons   []analysis.Constraint
	segLen []int

	// nameCount counts permitted paths per sanitized solver-variable name.
	// A shared name — equal renderings (a ToAlgebra error) or a
	// sanitization collision (which the pipeline suffixes) — makes the
	// incremental mirror unsound, so dupNames > 0 degrades Verify to the
	// full pipeline until edits resolve the clash.
	nameCount map[string]int
	dupNames  int
}

// NewDeltaVerifier builds the resident constraint state for a deep copy of
// the instance from the pipeline's interned view. The instance must
// validate; name collisions are tolerated (the verifier starts degraded
// and recovers if edits remove them).
func NewDeltaVerifier(in *Instance) (*DeltaVerifier, error) {
	cp := cloneInstance(in)
	p, err := buildShardPrep(cp, 0)
	if err != nil {
		return nil, err
	}
	p.internVars(0)
	v := &DeltaVerifier{
		in:        cp,
		cons:      p.shardedConstraints(p.vars, 0),
		segLen:    make([]int, len(cp.Nodes)+len(cp.Links)),
		nameCount: make(map[string]int, p.nPaths),
	}
	for _, name := range p.vars {
		v.bumpName(string(name), +1)
	}
	for ni := range cp.Nodes {
		v.segLen[ni] = int(p.prefOff[ni+1] - p.prefOff[ni])
	}
	for _, m := range p.matches {
		v.segLen[len(cp.Nodes)+int(m.li)]++
	}
	v.dc = smt.NewDeltaContext(assertsOf(v.cons))
	return v, nil
}

// Name returns the instance name.
func (v *DeltaVerifier) Name() string { return v.in.Name }

// Snapshot returns a deep copy of the verifier's current instance.
func (v *DeltaVerifier) Snapshot() *Instance { return cloneInstance(v.in) }

// Degraded reports whether the incremental mirror is unsound for the
// current instance (two paths share a solver-variable name) and Verify is
// running the full pipeline instead.
func (v *DeltaVerifier) Degraded() bool { return v.dupNames > 0 }

// DeltaStats returns the underlying solver's delta statistics.
func (v *DeltaVerifier) DeltaStats() smt.DeltaStats { return v.dc.Stats() }

// Clone returns an independent copy, including the warm solver state: a
// what-if is applied to the clone and simply dropped when not committed.
func (v *DeltaVerifier) Clone() *DeltaVerifier {
	c := &DeltaVerifier{
		in:        cloneInstance(v.in),
		dc:        v.dc.Clone(),
		cons:      append([]analysis.Constraint(nil), v.cons...),
		segLen:    append([]int(nil), v.segLen...),
		nameCount: make(map[string]int, len(v.nameCount)),
		dupNames:  v.dupNames,
	}
	for k, n := range v.nameCount {
		c.nameCount[k] = n
	}
	return c
}

// Verify decides strict monotonicity for the current instance on the delta
// path (full pipeline when degraded), returning the analysis result and the
// suspect nodes implicated by the core (nil when sat) — the same contract
// as Session.AnalyzeSPP.
func (v *DeltaVerifier) Verify(ctx context.Context) (analysis.Result, []Node, error) {
	// Degenerate instances (no links, or no permitted paths at all) are
	// rejected by the algebra builder; route them through the full pipeline
	// so the caller sees the same error a fresh analysis would produce.
	if v.Degraded() || len(v.in.Links) == 0 || len(v.nameCount) == 0 {
		return v.VerifyFull(ctx)
	}
	out, err := v.dc.Check(ctx)
	if err != nil {
		return analysis.Result{}, nil, err
	}
	res := analysis.Result{
		Algebra:   "spp-" + v.in.Name,
		Condition: analysis.StrictMonotonicity,
		Sat:       out.Sat,
		Stats:     out.Stats,
	}
	for i := range v.cons {
		if v.cons[i].Kind == analysis.KindPreference {
			res.NumPreference++
		} else {
			res.NumMonotonicity++
		}
	}
	if out.Sat {
		res.Model = make(map[string]int, len(out.Model))
		for name, val := range out.Model {
			res.Model[string(name)] = val
		}
		return res, nil, nil
	}
	res.Core = make([]analysis.Constraint, 0, len(out.CoreIdx))
	for _, i := range out.CoreIdx {
		if i >= 0 && i < len(v.cons) {
			res.Core = append(res.Core, v.cons[i])
		}
	}
	return res, suspectNodes(res.Core, v.in.coreOwners(res.Core)), nil
}

// VerifyFull decides the current instance afresh on the one SPP pipeline
// (Analyze on the native engine): validation, interning, constraint
// generation, and solve from scratch, sharing no state with the delta
// path. It is the differential oracle the delta path is served against
// under -check-oracle, and what a degraded Verify runs.
func (v *DeltaVerifier) VerifyFull(ctx context.Context) (analysis.Result, []Node, error) {
	return Analyze(ctx, v.in, smt.Native{}, 0)
}

// ReRank replaces a node's ranked permitted paths (declaring the node and
// any new origin tokens like Instance.Rank) and refreshes the node's
// preference segment plus the monotonicity segments of its incident links.
// The paths are validated against the current topology first; an invalid
// ranking is rejected without mutating anything.
func (v *DeltaVerifier) ReRank(n Node, paths ...Path) error {
	if n == "" {
		return fmt.Errorf("spp %s: rerank of empty node name", v.in.Name)
	}
	for _, p := range paths {
		if len(p) < 2 {
			return fmt.Errorf("spp %s: node %s: path %q too short", v.in.Name, n, p)
		}
		if p.Owner() != n {
			return fmt.Errorf("spp %s: node %s: path %s not owned by node", v.in.Name, n, p)
		}
		for i := 0; i+2 < len(p); i++ {
			if !v.in.HasLink(p[i], p[i+1]) {
				return fmt.Errorf("spp %s: node %s: path %s uses missing link %s→%s", v.in.Name, n, p, p[i], p[i+1])
			}
		}
		for i := 1; i+1 < len(p); i++ {
			if !v.in.isReal(p[i]) {
				return fmt.Errorf("spp %s: node %s: path %s crosses undeclared node %s", v.in.Name, n, p, p[i])
			}
		}
	}
	newNode := !v.in.isReal(n)
	for _, p := range v.in.Permitted[n] {
		v.countPath(p, -1)
	}
	for _, p := range paths {
		v.countPath(p, +1)
	}
	v.in.Rank(n, clonePaths(paths)...)
	if newNode {
		if err := v.insertSeg(len(v.in.Nodes)-1, v.prefSeg(n)); err != nil {
			return err
		}
	} else if err := v.setSeg(v.nodeSegID(n), v.prefSeg(n)); err != nil {
		return err
	}
	return v.refreshIncident(map[Node]bool{n: true})
}

// DropSession removes the bidirectional session a↔b, prunes every permitted
// path crossing it (the operational reading of a session failure), and
// refreshes the segments of the pruned nodes. Removing a session that does
// not exist is an error.
func (v *DeltaVerifier) DropSession(a, b Node) error {
	var idx []int
	for i, l := range v.in.Links {
		if (l.From == a && l.To == b) || (l.From == b && l.To == a) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return fmt.Errorf("spp %s: no session %s↔%s", v.in.Name, a, b)
	}
	// Remove link segments and links together, descending so earlier
	// indices stay valid.
	for k := len(idx) - 1; k >= 0; k-- {
		i := idx[k]
		if err := v.removeSeg(len(v.in.Nodes) + i); err != nil {
			return err
		}
		v.in.Links = append(v.in.Links[:i], v.in.Links[i+1:]...)
	}
	delete(v.in.Cost, Link{a, b})
	delete(v.in.Cost, Link{b, a})

	crosses := func(p Path) bool {
		for i := 0; i+2 < len(p); i++ {
			if (p[i] == a && p[i+1] == b) || (p[i] == b && p[i+1] == a) {
				return true
			}
		}
		return false
	}
	pruned := map[Node]bool{}
	for _, n := range v.in.Nodes {
		old := v.in.Permitted[n]
		kept := make([]Path, 0, len(old))
		for _, p := range old {
			if crosses(p) {
				v.countPath(p, -1)
			} else {
				kept = append(kept, p)
			}
		}
		if len(kept) != len(old) {
			v.in.Permitted[n] = kept
			pruned[n] = true
		}
	}
	for _, n := range v.in.Nodes {
		if !pruned[n] {
			continue
		}
		if err := v.setSeg(v.nodeSegID(n), v.prefSeg(n)); err != nil {
			return err
		}
	}
	return v.refreshIncident(pruned)
}

// AddSession adds the bidirectional session a↔b with an optional IGP cost,
// declaring new nodes like Instance.AddSession. The new links' monotonicity
// segments start empty (no permitted path can reference a link that did not
// exist); a follow-up ReRank introduces paths over the session.
func (v *DeltaVerifier) AddSession(a, b Node, cost int) error {
	if a == b || a == "" || b == "" {
		return fmt.Errorf("spp %s: invalid session %s↔%s", v.in.Name, a, b)
	}
	for _, l := range v.in.Links {
		for _, nl := range [2]Link{{a, b}, {b, a}} {
			switch {
			case l == nl:
				return fmt.Errorf("spp %s: session %s↔%s already exists", v.in.Name, a, b)
			case sameLabel(l, nl):
				return fmt.Errorf("spp %s: link %s would repeat the label of link %s", v.in.Name, nl, l)
			}
		}
	}
	for _, n := range []Node{a, b} {
		if !v.in.isReal(n) {
			v.in.AddNode(n)
			if err := v.insertSeg(len(v.in.Nodes)-1, v.prefSeg(n)); err != nil {
				return err
			}
		}
	}
	v.in.Links = append(v.in.Links, Link{a, b}, Link{b, a})
	if cost != 0 {
		v.in.Cost[Link{a, b}] = cost
		v.in.Cost[Link{b, a}] = cost
	}
	if err := v.insertSeg(len(v.in.Nodes)+len(v.in.Links)-2, v.monoSeg(Link{a, b})); err != nil {
		return err
	}
	return v.insertSeg(len(v.in.Nodes)+len(v.in.Links)-1, v.monoSeg(Link{b, a}))
}

// refreshIncident regenerates the monotonicity segments of every link
// incident to a touched node. It runs after all ranking mutations of an
// operation, so each segment is regenerated from the final rankings.
func (v *DeltaVerifier) refreshIncident(touched map[Node]bool) error {
	for i, l := range v.in.Links {
		if !touched[l.From] && !touched[l.To] {
			continue
		}
		if err := v.setSeg(len(v.in.Nodes)+i, v.monoSeg(l)); err != nil {
			return err
		}
	}
	return nil
}

// --- segment generation (the incremental mirror of §IV-B) ---

// varOf names a permitted path's solver variable exactly as the full
// pipeline does for a collision-free instance.
func varOf(p Path) smt.Var { return analysis.VarName(sigName(p)) }

// prefSeg generates the node's preference segment: the ranked list as
// adjacent strict pairs, Builder.Chain's expansion.
func (v *DeltaVerifier) prefSeg(n Node) []analysis.Constraint {
	paths := v.in.Permitted[n]
	if len(paths) < 2 {
		return nil
	}
	out := make([]analysis.Constraint, 0, len(paths)-1)
	for i := 0; i+1 < len(paths); i++ {
		out = append(out, prefConstraint(sigName(paths[i]), sigName(paths[i+1]), varOf(paths[i]), varOf(paths[i+1])))
	}
	return out
}

// monoSeg generates the directed link's monotonicity segment: for every
// permitted path q of the link's head whose extension [tail]+q is permitted
// at the tail, the ⊕ entry l_uv ⊕ r_q = r_uq — the owner-ordered slice of
// algebra.ConcatTable this link contributes.
func (v *DeltaVerifier) monoSeg(l Link) []analysis.Constraint {
	var out []analysis.Constraint
	lab := linkLabel(l)
	permF := v.in.Permitted[l.From]
	for _, q := range v.in.Permitted[l.To] {
		fq := extensionRank(permF, l.From, q)
		if fq < 0 {
			continue
		}
		p := permF[fq]
		out = append(out, monoConstraint(lab, sigName(q), sigName(p), varOf(q), varOf(p)))
	}
	return out
}

// --- segment bookkeeping ---

func (v *DeltaVerifier) nodeSegID(n Node) int {
	for i, e := range v.in.Nodes {
		if e == n {
			return i
		}
	}
	return -1
}

func (v *DeltaVerifier) segOffset(id int) int {
	off := 0
	for i := 0; i < id; i++ {
		off += v.segLen[i]
	}
	return off
}

// setSeg replaces segment id's constraints, splicing the solver context
// only when the content actually changed.
func (v *DeltaVerifier) setSeg(id int, fresh []analysis.Constraint) error {
	off := v.segOffset(id)
	old := v.cons[off : off+v.segLen[id]]
	if constraintsEqual(old, fresh) {
		return nil
	}
	if err := v.dc.Splice(off, len(old), assertsOf(fresh)); err != nil {
		return err
	}
	next := make([]analysis.Constraint, 0, len(v.cons)-len(old)+len(fresh))
	next = append(next, v.cons[:off]...)
	next = append(next, fresh...)
	next = append(next, v.cons[off+len(old):]...)
	v.cons = next
	v.segLen[id] = len(fresh)
	return nil
}

// insertSeg inserts a new segment at id.
func (v *DeltaVerifier) insertSeg(id int, fresh []analysis.Constraint) error {
	v.segLen = append(v.segLen, 0)
	copy(v.segLen[id+1:], v.segLen[id:])
	v.segLen[id] = 0
	return v.setSeg(id, fresh)
}

// removeSeg deletes segment id.
func (v *DeltaVerifier) removeSeg(id int) error {
	if err := v.setSeg(id, nil); err != nil {
		return err
	}
	v.segLen = append(v.segLen[:id], v.segLen[id+1:]...)
	return nil
}

// countPath tracks variable-name multiplicity as paths come and go,
// maintaining the degradation counter.
func (v *DeltaVerifier) countPath(p Path, d int) { v.bumpName(string(varOf(p)), d) }

func (v *DeltaVerifier) bumpName(name string, d int) {
	old := v.nameCount[name]
	nw := old + d
	if nw == 0 {
		delete(v.nameCount, name)
	} else {
		v.nameCount[name] = nw
	}
	if old <= 1 && nw >= 2 {
		v.dupNames++
	} else if old >= 2 && nw <= 1 {
		v.dupNames--
	}
}

// --- helpers ---

func assertsOf(cons []analysis.Constraint) []smt.Assertion {
	out := make([]smt.Assertion, len(cons))
	for i := range cons {
		out[i] = cons[i].Assertion
	}
	return out
}

func constraintsEqual(a, b []analysis.Constraint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func clonePaths(paths []Path) []Path {
	out := make([]Path, len(paths))
	for i, p := range paths {
		out[i] = append(Path(nil), p...)
	}
	return out
}

func cloneInstance(in *Instance) *Instance {
	cp := &Instance{
		Name:      in.Name,
		Nodes:     append([]Node(nil), in.Nodes...),
		Origins:   append([]Node(nil), in.Origins...),
		Links:     append([]Link(nil), in.Links...),
		Cost:      make(map[Link]int, len(in.Cost)),
		Permitted: make(map[Node][]Path, len(in.Permitted)),
	}
	for l, c := range in.Cost {
		cp.Cost[l] = c
	}
	for n, paths := range in.Permitted {
		cp.Permitted[n] = clonePaths(paths)
	}
	return cp
}
