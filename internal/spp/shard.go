// The one SPP analysis pipeline: the interned instance view, sharded
// constraint generation, and the dense SCC solve.
//
// ToAlgebra + analysis.Constraints materializes the full §III-B algebra and
// derives the §IV-B constraint system through algebra.ConcatTable, which
// enumerates labels × signatures — O(n²) map lookups that dominate
// everything else from a few thousand nodes up. But the non-φ entries of
// that table are exactly the permitted extensions the instance already
// states: for each directed link u→v, the permitted paths q of v whose
// extension u·q is permitted at u, in rank order. buildShardPrep interns
// that per-link view once (dense path ids, per-link extension matches,
// per-path solver variables), and every SPP analysis runs on it: the
// per-node preference segments (Nodes order) followed by the per-link
// monotonicity segments (Links order) are emitted in parallel,
// element-for-element identical to what the full pipeline generates, in
// O(paths + links·K²) instead of O(links·paths). The DeltaVerifier loads
// its initial segments from the same view.
//
// Analyze is the entry point. For the native engine it sends the
// difference constraints straight to smt.SolveDense — no Origin strings,
// no interning, no per-constraint provenance, not even the signature
// renderings — and materializes the analysis.Result with exactly the
// variables, values, and counts the classic path produces. Unsatisfiable
// instances, and every other solver, go through the provenance buffer and
// analysis.CheckPrepared, so minimized cores and §VI-B suspect sets stay
// bit-identical too. Variable-name collisions and invalid instances are
// decided here exactly as the classic path decides them; ToAlgebra
// remains for callers that need the algebra itself (simulation,
// deployment, the paper's experiments) and as the test oracle.

package spp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
	"unicode/utf8"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
	"fsr/internal/obs"
	"fsr/internal/smt"
)

// linkMatch records one permitted extension: Permitted[Links[li].To][tq]
// extended over link li equals Permitted[Links[li].From][fq]. Matches are
// collected in link order, so the j-th match is monotonicity constraint
// totalPref+j of the canonical emission order.
type linkMatch struct {
	li, tq, fq int32
}

// shardPrep is the interned, densely indexed view of an instance. Per-path
// state lives in flat arrays indexed by global path id ((node, rank)
// order) rather than per-node slices — at 10⁵ nodes the slice headers
// alone would dominate allocation — and signature renderings are not
// materialized at all until a provenance buffer asks for them.
type shardPrep struct {
	in       *Instance
	perms    [][]Path // per node index: its permitted paths (shared, not copied)
	linkEnds []int32  // per link: from-index, to-index (2 entries each; −1 undeclared)
	pathOff  []int32  // global path-id base per node; id = pathOff[ni]+rank
	nPaths   int
	vars     []smt.Var // per path id: the sanitized solver variable, unsuffixed
	prefOff  []int32   // per node: first preference-constraint index
	matches  []linkMatch
	dupNames bool // some two paths share a sanitized variable name
}

func (p *shardPrep) totalPref() int32 { return p.prefOff[len(p.prefOff)-1] }
func (p *shardPrep) total() int32     { return p.totalPref() + int32(len(p.matches)) }

// parShards splits [0,n) into at most `workers` contiguous chunks and runs
// fn on each concurrently. fn receives (shard, lo, hi); shard indexes are
// dense so callers can collect per-shard results deterministically.
func parShards(n, workers int, fn func(shard, lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	shard := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			fn(shard, lo, hi)
		}(shard, lo, hi)
		shard++
	}
	wg.Wait()
}

// shardCount returns the number of chunks parShards(n, workers, ·) will
// run — for sizing per-shard result buffers.
func shardCount(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return 0
	}
	if workers <= 1 {
		return 1
	}
	chunk := (n + workers - 1) / workers
	return (n + chunk - 1) / chunk
}

// cleanByte maps each ASCII byte to itself when it is in
// analysis.sanitize's identifier-safe set and to '_' otherwise.
var cleanByte = func() (t [128]byte) {
	for i := range t {
		c := byte(i)
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			t[i] = c
		} else {
			t[i] = '_'
		}
	}
	return
}()

// renderVar computes analysis.VarName(sigName(q)) — the sanitized solver
// variable — in a single allocation: the rendering goes into the scratch
// buffer (returned for reuse) and is sanitized in place, ASCII bytes
// through the lookup table and each multi-byte (or invalid) rune
// collapsing to a single '_', as sanitize substitutes per rune.
func renderVar(buf []byte, q Path) (smt.Var, []byte) {
	buf = appendSigName(buf[:0], q)
	out := buf[:0]
	for i := 0; i < len(buf); {
		if c := buf[i]; c < utf8.RuneSelf {
			out = append(out, cleanByte[c])
			i++
			continue
		}
		_, size := utf8.DecodeRune(buf[i:])
		out = append(out, '_')
		i += size
	}
	if len(out) == 0 {
		return "sig", buf // sanitize("") == "sig"
	}
	return smt.Var(out), buf
}

// buildShardPrep indexes the instance, collects the permitted-extension
// matches in link order, and validates it — Instance.Validate is this
// function — proving most paths without a map lookup.
func buildShardPrep(in *Instance, workers int) (*shardPrep, error) {
	nn := len(in.Nodes)
	nl := len(in.Links)
	p := &shardPrep{
		in:       in,
		perms:    make([][]Path, nn),
		linkEnds: make([]int32, 2*nl),
		pathOff:  make([]int32, nn+1),
		prefOff:  make([]int32, nn+1),
	}
	nodeIdx := make(map[Node]int32, nn)
	for i, n := range in.Nodes {
		nodeIdx[n] = int32(i)
	}
	for n := range in.Permitted {
		if _, ok := nodeIdx[n]; !ok {
			return nil, fmt.Errorf("spp %s: ranking for undeclared node %s", in.Name, n)
		}
	}
	for ni, n := range in.Nodes {
		paths := in.Permitted[n]
		p.perms[ni] = paths
		p.pathOff[ni+1] = p.pathOff[ni] + int32(len(paths))
		c := int32(0)
		if len(paths) > 1 {
			c = int32(len(paths) - 1)
		}
		p.prefOff[ni+1] = p.prefOff[ni] + c
	}
	p.nPaths = int(p.pathOff[nn])

	origins := make(map[Node]bool, len(in.Origins))
	for _, o := range in.Origins {
		origins[o] = true
	}
	// One string-resolution pass over the links: index pairs for the match
	// and fill loops. Links with undeclared endpoints can't be resolved and
	// never produce matches; paths crossing them fall to validatePath
	// below, where the "crosses undeclared node" error stays reachable
	// exactly where Validate reports it.
	// Sessions append both directions back to back, so the previous link's
	// endpoints predict this one's — string equality on the shared backing
	// array short-circuits before hashing.
	var cacheA, cacheB Node
	var cacheAi, cacheBi int32
	var haveA, haveB bool
	resolve := func(n Node) int32 {
		if haveA && n == cacheA {
			return cacheAi
		}
		if haveB && n == cacheB {
			return cacheBi
		}
		id, ok := nodeIdx[n]
		if !ok {
			id = -1
		}
		cacheA, cacheAi, haveA = cacheB, cacheBi, haveB
		cacheB, cacheBi, haveB = n, id, true
		return id
	}
	for li, l := range in.Links {
		p.linkEnds[2*li], p.linkEnds[2*li+1] = resolve(l.From), resolve(l.To)
	}

	// Permitted-extension matches: one parallel pass, per-shard buffers
	// concatenated in shard order. Shards are contiguous link ranges, so
	// concatenation preserves the canonical link-order emission. The label
	// hashes for the duplicate-link screen ride along.
	labels := make([]uint64, nl)
	bufs := make([][]linkMatch, shardCount(nl, workers))
	parShards(nl, workers, func(shard, lo, hi int) {
		var buf []linkMatch
		for li := lo; li < hi; li++ {
			labels[li] = labelHash(in.Links[li])
			fi, ti := p.linkEnds[2*li], p.linkEnds[2*li+1]
			if fi < 0 || ti < 0 {
				continue
			}
			from, permF := in.Links[li].From, p.perms[fi]
			for tq, q := range p.perms[ti] {
				if fq := extensionRank(permF, from, q); fq >= 0 {
					buf = append(buf, linkMatch{int32(li), int32(tq), fq})
				}
			}
		}
		bufs[shard] = buf
	})
	if len(bufs) == 1 {
		p.matches = bufs[0]
	} else {
		total := 0
		for _, b := range bufs {
			total += len(b)
		}
		p.matches = make([]linkMatch, 0, total)
		for _, b := range bufs {
			p.matches = append(p.matches, b...)
		}
	}

	// Validation by extension propagation. A two-element path is valid iff
	// it is [owner, origin]. A matched extension [From]+q over link li is
	// valid whenever q is: its first hop IS link li (both endpoints
	// declared), its owner is From by extensionRank's prefix check, and its
	// remaining hops and origin token are q's. Propagating validity through
	// the match list therefore proves every extension-structured path
	// without touching a map — and instances built by rank-and-extend (all
	// generators, and anything GenerateInternet produces) have no other
	// paths. Whatever is left unproven goes through validatePath.
	valid := make([]bool, p.nPaths)
	parShards(nn, workers, func(_, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			n := in.Nodes[ni]
			base := p.pathOff[ni]
			for r, q := range p.perms[ni] {
				if len(q) == 2 && q[0] == n && origins[q[1]] {
					valid[base+int32(r)] = true
				}
			}
		}
	})
	for changed := true; changed; {
		changed = false
		for _, m := range p.matches {
			a := p.pathOff[p.linkEnds[2*m.li+1]] + m.tq
			b := p.pathOff[p.linkEnds[2*m.li]] + m.fq
			if valid[a] && !valid[b] {
				valid[b] = true
				changed = true
			}
		}
	}
	var links map[Link]bool
	for ni := 0; ni < nn; ni++ {
		base := p.pathOff[ni]
		for r, q := range p.perms[ni] {
			if valid[base+int32(r)] {
				continue
			}
			if links == nil {
				links = make(map[Link]bool, nl)
				for _, l := range in.Links {
					links[l] = true
				}
			}
			if err := validatePath(in, in.Nodes[ni], q, origins, links, nodeIdx); err != nil {
				return nil, err
			}
		}
	}
	return p, checkLabels(in, labels)
}

// internVars interns every permitted path's unsuffixed solver variable
// into the flat array, sharded by node, and flags name collisions.
func (p *shardPrep) internVars(workers int) {
	nn := len(p.in.Nodes)
	// The duplicate-screen hash rides along while the bytes are hot.
	p.vars = make([]smt.Var, p.nPaths)
	keys := make([]uint64, p.nPaths)
	parShards(nn, workers, func(_, lo, hi int) {
		var buf []byte
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni]
			for r, q := range p.perms[ni] {
				id := base + int32(r)
				p.vars[id], buf = renderVar(buf, q)
				keys[id] = fnvAppend(fnvOffset, string(p.vars[id]))
			}
		}
	})
	if hasRepeat(keys) {
		seen := make(map[smt.Var]struct{}, p.nPaths)
		for _, v := range p.vars {
			if _, dup := seen[v]; dup {
				p.dupNames = true
				obsShardCollisions.Inc()
				break
			}
			seen[v] = struct{}{}
		}
	}
}

// solverVars returns the per-path solver variables the full pipeline
// assigns. Without name collisions they are the interned names. Otherwise
// it decides the collision as ToAlgebra and analysis step 1 do: two paths
// with equal renderings are ToAlgebra's duplicate-permitted-path error,
// and sanitization collisions take newSigVars' _2, _3, … suffixes, handed
// out in path-id order (the converted algebra's Sigs order).
func (p *shardPrep) solverVars() ([]smt.Var, error) {
	if !p.dupNames {
		return p.vars, nil
	}
	rendered := make(map[string]struct{}, p.nPaths)
	taken := make(map[smt.Var]struct{}, p.nPaths)
	vars := make([]smt.Var, 0, p.nPaths)
	for _, perm := range p.perms {
		for _, q := range perm {
			sym := sigName(q)
			if _, dup := rendered[sym]; dup {
				return nil, fmt.Errorf("spp %s: duplicate permitted path %s", p.in.Name, q)
			}
			rendered[sym] = struct{}{}
			base := p.vars[len(vars)]
			name := base
			for i := 2; ; i++ {
				if _, t := taken[name]; !t {
					break
				}
				name = smt.Var(fmt.Sprintf("%s_%d", base, i))
			}
			taken[name] = struct{}{}
			vars = append(vars, name)
		}
	}
	return vars, nil
}

// extensionRank returns the rank of the extension [from]+q in perm, or −1
// when the extension is not permitted. Allocation-free (the element-wise
// compare never materializes the extended path).
func extensionRank(perm []Path, from Node, q Path) int32 {
	for r, pp := range perm {
		if len(pp) != len(q)+1 || pp[0] != from {
			continue
		}
		match := true
		for i := range q {
			if pp[i+1] != q[i] {
				match = false
				break
			}
		}
		if match {
			return int32(r)
		}
	}
	return -1
}

// renderSyms materializes every path's signature rendering (sigName) into
// a flat array. Renderings exist purely for provenance — origin strings,
// PrefPair/ConcatEntry symbols — so only the AoS buffer pays for them; the
// dense sat path never calls this.
func (p *shardPrep) renderSyms(workers int) []string {
	defer timeEmit(obsEmitSyms, time.Now())
	syms := make([]string, p.nPaths)
	parShards(len(p.in.Nodes), workers, func(_, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni]
			for r, q := range p.perms[ni] {
				syms[base+int32(r)] = sigName(q)
			}
		}
	})
	return syms
}

// prefConstraint is the §IV-B preference constraint of two adjacent ranks:
// path a (rendering symA, variable va) strictly preferred to path b. It
// and monoConstraint are the only constructors of SPP constraints, shared
// by the sharded generator and the DeltaVerifier's segments.
func prefConstraint(symA, symB string, va, vb smt.Var) analysis.Constraint {
	pair := algebra.PrefPair{A: algebra.Symbol(symA), B: algebra.Symbol(symB), Strict: true}
	return analysis.Constraint{
		Assertion: smt.Assertion{
			Rel:    smt.Lt,
			A:      smt.Term{Var: va},
			B:      smt.Term{Var: vb},
			Origin: "pref: " + pair.String(),
		},
		Kind: analysis.KindPreference,
		Pref: pair,
	}
}

// monoConstraint is the strict-monotonicity constraint of the ⊕ entry
// lab ⊕ r_in = r_out: the extended path out must rank strictly below the
// path in it extends.
func monoConstraint(lab algebra.Label, symIn, symOut string, vin, vout smt.Var) analysis.Constraint {
	entry := algebra.ConcatEntry{Label: lab, In: algebra.Symbol(symIn), Out: algebra.Symbol(symOut)}
	return analysis.Constraint{
		Assertion: smt.Assertion{
			Rel:    smt.Lt,
			A:      smt.Term{Var: vin},
			B:      smt.Term{Var: vout},
			Origin: "mono: " + entry.String(),
		},
		Kind:  analysis.KindMonotonicity,
		Entry: entry,
	}
}

// shardedConstraints fills the constraint buffer in parallel over the
// given per-path variables: the per-node preference segments (Nodes
// order) then the per-link monotonicity segments (Links order) — exactly
// the emission order of algebra.Preferences followed by
// algebra.ConcatTable on the converted instance, element for element.
func (p *shardPrep) shardedConstraints(vars []smt.Var, workers int) []analysis.Constraint {
	in := p.in
	syms := p.renderSyms(workers)
	totalPref := p.totalPref()
	cons := make([]analysis.Constraint, p.total())
	prefStart := time.Now()
	parShards(len(in.Nodes), workers, func(_, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni]
			out := cons[p.prefOff[ni]:p.prefOff[ni+1]]
			for i := range out {
				a, b := base+int32(i), base+int32(i)+1
				out[i] = prefConstraint(syms[a], syms[b], vars[a], vars[b])
			}
		}
	})
	timeEmit(obsEmitPref, prefStart)
	monoStart := time.Now()
	parShards(len(p.matches), workers, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			m := p.matches[j]
			a := p.pathOff[p.linkEnds[2*m.li+1]] + m.tq
			b := p.pathOff[p.linkEnds[2*m.li]] + m.fq
			cons[totalPref+int32(j)] = monoConstraint(linkLabel(in.Links[m.li]), syms[a], syms[b], vars[a], vars[b])
		}
	})
	timeEmit(obsEmitMono, monoStart)
	return cons
}

// ShardedConstraints generates the instance's strict-monotonicity
// constraint system in parallel: element-for-element identical (assertion,
// origin, kind, provenance) to analysis.Constraints over in.ToAlgebra(),
// without materializing the algebra, and failing with ToAlgebra's error
// where the conversion fails. ok is true whenever err is nil.
func ShardedConstraints(in *Instance, workers int) ([]analysis.Constraint, bool, error) {
	p, vars, err := prepare(in, workers)
	if err != nil {
		return nil, false, err
	}
	return p.shardedConstraints(vars, workers), true, nil
}

// prepare builds the prep and decides everything ToAlgebra would reject:
// structural validation, duplicate renderings, and the algebra builder's
// degenerate shapes (no links means no labels, no paths no signatures).
// It returns the per-path solver variables of the full pipeline.
func prepare(in *Instance, workers int) (*shardPrep, []smt.Var, error) {
	p, err := buildShardPrep(in, workers)
	if err != nil {
		return nil, nil, err
	}
	p.internVars(workers)
	vars, err := p.solverVars()
	switch {
	case err != nil:
		return nil, nil, err
	case len(in.Links) == 0:
		return nil, nil, fmt.Errorf("building algebra: algebra spp-%s: no labels declared", in.Name)
	case p.nPaths == 0:
		return nil, nil, fmt.Errorf("building algebra: algebra spp-%s: no signatures declared", in.Name)
	}
	return p, vars, nil
}

// denseConstraints emits the same constraint system as compact
// smt.DenseConstraint records over global path ids (1-based; 0 is the
// solver's zero anchor) — no strings, no provenance — and marks which
// variables appear, since the classic path only interns (and models)
// variables that occur in some assertion.
func (p *shardPrep) denseConstraints(workers int) (cons []smt.DenseConstraint, appears []bool) {
	totalPref := p.totalPref()
	cons = make([]smt.DenseConstraint, p.total())
	prefStart := time.Now()
	parShards(len(p.in.Nodes), workers, func(_, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni] + 1
			out := cons[p.prefOff[ni]:p.prefOff[ni+1]]
			for i := range out {
				out[i] = smt.DenseConstraint{A: base + int32(i), B: base + int32(i) + 1, Strict: true}
			}
		}
	})
	timeEmit(obsEmitDensePref, prefStart)
	monoStart := time.Now()
	parShards(len(p.matches), workers, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			m := p.matches[j]
			cons[totalPref+int32(j)] = smt.DenseConstraint{
				A:      p.pathOff[p.linkEnds[2*m.li+1]] + m.tq + 1,
				B:      p.pathOff[p.linkEnds[2*m.li]] + m.fq + 1,
				Strict: true,
			}
		}
	})
	timeEmit(obsEmitDenseMono, monoStart)
	appears = make([]bool, p.nPaths+1)
	for i := range cons {
		appears[cons[i].A] = true
		appears[cons[i].B] = true
	}
	return cons, appears
}

// denseSolvable reports whether the solver's semantics are the ones the
// dense SCC solve reproduces: the native difference-logic engine with
// deletion-minimized cores (the decomposed backend is that same engine).
func denseSolvable(solver smt.Solver) bool {
	switch s := solver.(type) {
	case smt.Native:
		return !s.NoMinimize
	case smt.Decomposed:
		return !s.NoMinimize
	}
	return false
}

// Analyze decides strict monotonicity of an SPP instance on solver (nil
// means smt.Native{}): the one SPP analysis pipeline, behind
// Session.AnalyzeSPP, DeltaVerifier.VerifyFull, and campaign evaluation.
// The result — verdict, model, minimized core, constraint counts — and
// the §VI-B suspect set are bit-identical to analysis.CheckWith over
// in.ToAlgebra() on the same solver followed by Conversion.SuspectNodes,
// and every instance ToAlgebra rejects fails here with the same error.
//
// It builds the interned instance view once, then solves one of two ways.
// For the native engine with core minimization, the constraints go to the
// SCC-decomposed dense solver as bare integer ids; a satisfiable instance
// never materializes a provenance constraint or a signature rendering,
// and an unsatisfiable one re-solves through the sharded constraints so
// the minimized core keeps its canonical order. Every other solver gets
// the sharded constraints through analysis.CheckPrepared directly.
func Analyze(ctx context.Context, in *Instance, solver smt.Solver, workers int) (analysis.Result, []Node, error) {
	if solver == nil {
		solver = smt.Native{}
	}
	ctx, prepSpan := obs.StartSpan(ctx, "shard-prep")
	p, vars, err := prepare(in, workers)
	prepSpan.End()
	if err != nil {
		return analysis.Result{}, nil, err
	}
	if !denseSolvable(solver) {
		obsPathSharded.Inc()
		return p.check(ctx, vars, solver, workers)
	}
	ctx, emitSpan := obs.StartSpan(ctx, "dense-emit")
	dense, appears := p.denseConstraints(workers)
	emitSpan.AttrInt("constraints", int64(len(dense)))
	emitSpan.End()
	ctx, solveSpan := obs.StartSpan(ctx, "solve-dense")
	sat, model, stats, err := smt.SolveDense(ctx, p.nPaths, dense, workers)
	solveSpan.AttrInt("components", int64(stats.Components))
	solveSpan.AttrInt("levels", int64(stats.Levels))
	solveSpan.End()
	if err != nil {
		return analysis.Result{}, nil, err
	}
	if !sat {
		obsPathResolve.Inc()
		res, suspects, err := p.check(ctx, vars, solver, workers)
		if err != nil {
			return analysis.Result{}, nil, err
		}
		res.Stats.Components = stats.Components
		res.Stats.TrivialComponents = stats.TrivialComponents
		res.Stats.Levels = stats.Levels
		res.Stats.MaxLevelWidth = stats.MaxLevelWidth
		res.Stats.TarjanDuration = stats.TarjanDuration
		return res, suspects, nil
	}
	obsPathDense.Inc()
	res := analysis.Result{
		Algebra:         "spp-" + in.Name,
		Condition:       analysis.StrictMonotonicity,
		Sat:             true,
		NumPreference:   int(p.totalPref()),
		NumMonotonicity: len(p.matches),
		Stats:           stats,
	}
	nVars := 0
	res.Model = make(map[string]int, p.nPaths)
	for id := 1; id <= p.nPaths; id++ {
		if appears[id] {
			res.Model[string(vars[id-1])] = model[id]
			nVars++
		}
	}
	// Classic interning only counts appearing variables; the dense solve
	// saw every path id. Report the classic figures.
	res.Stats.Variables = nVars
	res.Stats.Edges = len(dense) + nVars
	return res, nil, nil
}

// check decides the sharded constraint buffer on solver and maps an unsat
// core to its suspects.
func (p *shardPrep) check(ctx context.Context, vars []smt.Var, solver smt.Solver, workers int) (analysis.Result, []Node, error) {
	_, emitSpan := obs.StartSpan(ctx, "sharded-emit")
	cons := p.shardedConstraints(vars, workers)
	emitSpan.End()
	res, err := analysis.CheckPrepared(ctx, "spp-"+p.in.Name, analysis.StrictMonotonicity, cons, solver)
	if err != nil {
		return analysis.Result{}, nil, err
	}
	if res.Sat {
		return res, nil, nil
	}
	return res, suspectNodes(res.Core, p.in.coreOwners(res.Core)), nil
}

// AnalyzeScale is Analyze on the native engine, kept for callers of the
// former large-instance entry point. ok is true whenever err is nil.
func AnalyzeScale(ctx context.Context, in *Instance, workers int) (analysis.Result, []Node, bool, error) {
	res, suspects, err := Analyze(ctx, in, smt.Native{}, workers)
	return res, suspects, err == nil, err
}
