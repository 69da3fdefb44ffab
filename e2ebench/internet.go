package main

// internet-analyze: an analyst waiting for the safety verdict on an
// Internet-size topology.
//
// Why this workload exists: the spp shard preparation and dense emission
// and the smt SCC-decomposed solve do almost all the work here. The unsafe
// quarter takes the same layers down a different path (re-solve through
// the sharded classic constraints, then core minimization), so with a 3:1
// rotation latency_p50_ms tracks the safe path and latency_tail_ms (p80)
// the unsafe one. No simulation or delta work runs.
//
// Shape: sequential Session.AnalyzeSPP calls on eight pre-generated
// internet:50000 instances in a fixed rotation of two rounds of three
// safe topologies and one with a planted dispute pair. The planted
// instance of a round is its first topology with the pair planted (it
// shares that topology's unchanged data), and six topologies per run
// average out how much one topology's cost differs from another's.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"fsr"
	"fsr/internal/analysis"
	"fsr/internal/scenario"
	"fsr/internal/smt"
	"fsr/internal/spp"
	"fsr/internal/topology"
)

const (
	internetNodes = 50000
	// internetRounds is how many rounds of three safe instances and one
	// unsafe instance a run rotates through.
	internetRounds = 2
	// internetMaxAlt is GenerateInternetSPP's alternates per node.
	internetMaxAlt = 3
)

type internetWL struct {
	sess    *fsr.Session
	inst    []*spp.Instance
	want    [][]string // suspects known by construction; nil for safe instances
	next    int        // rotation position; advances across phases
	workers int
	genS    float64
	fp      string
	// stats holds each instance's exact counts from its first analysis;
	// every later analysis must reproduce them.
	stats    []*exactCounts
	problems []string
}

func setupInternet(_ context.Context, seed int64) (workload, error) {
	w := &internetWL{workers: runtime.GOMAXPROCS(0)}
	w.sess = fsr.NewSession(fsr.WithParallelism(w.workers))
	fp := newFingerprint("internet-analyze")
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < internetRounds; r++ {
		var first *spp.Instance
		var firstGraph *topology.ASGraph
		for k := 0; k < 3; k++ {
			tseed := seed*8 + int64(3*r+k)
			start := time.Now()
			g := topology.GenerateInternet(tseed, topology.InternetParams{N: internetNodes})
			w.genS += time.Since(start).Seconds()
			in := scenario.InternetSPP(fmt.Sprintf("internet:%d:%d", internetNodes, tseed), g, internetMaxAlt)
			if k == 0 {
				first, firstGraph = in, g
			}
			w.add(fp, in, nil)
		}
		in, pair := plantPair(first, firstGraph, rng)
		w.add(fp, in, pair)
	}
	w.fp = fp.sum()
	return w, nil
}

func (w *internetWL) add(fp *fingerprint, in *spp.Instance, want []string) {
	fp.instance(in)
	w.inst = append(w.inst, in)
	w.want = append(w.want, want)
	w.stats = append(w.stats, nil)
}

// plantPair returns a copy of a safe instance with a DISAGREE pair planted
// on a session away from the destination (the last AS), as the scenario
// injectors do: each end prefers the route through the other over its own
// private origin. The copy shares every ranking but the two it replaces.
func plantPair(in *spp.Instance, g *topology.ASGraph, rng *rand.Rand) (*spp.Instance, []string) {
	dest := g.Nodes[len(g.Nodes)-1]
	e := g.Edges[rng.Intn(len(g.Edges))]
	for e.A == dest || e.B == dest {
		e = g.Edges[rng.Intn(len(g.Edges))]
	}
	u, v := spp.Node(e.A), spp.Node(e.B)
	out := *in
	out.Name = in.Name + "+dispute"
	out.Origins = append(append([]spp.Node(nil), in.Origins...), "rx_"+u, "rx_"+v)
	out.Permitted = make(map[spp.Node][]spp.Path, len(in.Permitted))
	for n, ps := range in.Permitted {
		out.Permitted[n] = ps
	}
	out.Permitted[u] = []spp.Path{{u, v, "rx_" + v}, {u, "rx_" + u}}
	out.Permitted[v] = []spp.Path{{v, u, "rx_" + u}, {v, "rx_" + v}}
	pair := []string{string(u), string(v)}
	sort.Strings(pair)
	return &out, pair
}

func (w *internetWL) fingerprint() string { return w.fp }

// checkAnswer compares one analysis with the verdict known by
// construction and its solver counts with the instance's first analysis.
func (w *internetWL) checkAnswer(k int, res analysis.Result, suspects []string) (why string) {
	want := w.want[k]
	wantSafe := want == nil
	if res.Sat != wantSafe || !sameSet(suspects, want) {
		return fmt.Sprintf("%s: safe=%v suspects=%v, want safe=%v suspects=%v", w.inst[k].Name, res.Sat, suspects, wantSafe, want)
	}
	got := exactStats(res)
	if w.stats[k] == nil {
		w.stats[k] = &got
	} else if *w.stats[k] != got && len(w.problems) < maxProblems {
		w.problems = append(w.problems, fmt.Sprintf("%s: solver counts %+v, earlier analysis %+v", w.inst[k].Name, got, *w.stats[k]))
	}
	return ""
}

// exactCounts are the counts of one analysis that must repeat exactly:
// the solver's (durations zeroed) and the minimized core's size.
type exactCounts struct {
	smt.Stats
	core int
}

func exactStats(res analysis.Result) exactCounts {
	s := res.Stats
	return exactCounts{Stats: smt.Stats{
		Assertions: res.NumPreference + res.NumMonotonicity, Variables: s.Variables, Edges: s.Edges,
		Components: s.Components, TrivialComponents: s.TrivialComponents,
		Probes: s.Probes, Relaxations: s.Relaxations, Levels: s.Levels, MaxLevelWidth: s.MaxLevelWidth,
	}, core: len(res.Core)}
}

func (w *internetWL) run(ctx, tctx context.Context, stop *stopRule) (*tally, map[string]float64) {
	t := &tally{}
	for stop.next() {
		k := w.next % len(w.inst)
		w.next++
		in := w.inst[k]
		sp := begin(tctx, "internet.analyze")
		res, sus, err := w.sess.AnalyzeSPP(ctx, in)
		lat := sp.end()
		if err != nil {
			t.fail(1, false, fmt.Sprintf("%s: %v", in.Name, err))
			continue
		}
		if why := w.checkAnswer(k, res, nodeStrings(sus)); why != "" {
			t.fail(1, true, why)
			continue
		}
		t.ok(1, lat)
		stop.sampled()
	}
	return t, nil
}

// census analyzes each instance once more, directly through the scale
// path, timing each analysis and counting its allocations, and sums the
// exact solver counts. It then takes the first unsafe instance apart:
// sharded constraint generation, and the classic check with core
// minimization on those constraints.
func (w *internetWL) census(ctx, tctx context.Context) (layers, exact map[string]float64, err error) {
	exact = map[string]float64{}
	var safeMS, unsafeMS, allocs, heapMB, tarjanMS []float64
	for k, in := range w.inst {
		name := "spp.scale.analyze.safe"
		if w.want[k] != nil {
			name = "spp.scale.analyze.unsafe"
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := begin(tctx, name)
		res, sus, ok, err := spp.AnalyzeScale(ctx, in, w.workers)
		lat := sp.end()
		runtime.ReadMemStats(&after)
		if err != nil || !ok {
			return nil, nil, fmt.Errorf("census analysis of %s: ok=%v err=%v", in.Name, ok, err)
		}
		if why := w.checkAnswer(k, res, nodeStrings(sus)); why != "" {
			return nil, nil, fmt.Errorf("census: %s", why)
		}
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		heapMB = append(heapMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		tarjanMS = append(tarjanMS, ms(res.Stats.TarjanDuration))
		if w.want[k] != nil {
			unsafeMS = append(unsafeMS, lat)
		} else {
			safeMS = append(safeMS, lat)
		}
		s := exactStats(res)
		exact["smt.scc.components"] += float64(s.Components)
		exact["smt.scc.levels"] += float64(s.Levels)
		exact["smt.scc.max_level_width"] = max(exact["smt.scc.max_level_width"], float64(s.MaxLevelWidth))
		exact["smt.probes"] += float64(s.Probes)
		exact["smt.relaxations"] += float64(s.Relaxations)
		exact["spp.scale.constraints"] += float64(s.Assertions)
	}
	unsafe := w.inst[3]
	sp := begin(tctx, "spp.scale.sharded_constraints")
	cons, ok, err := spp.ShardedConstraints(unsafe, w.workers)
	shardMS := sp.end()
	if err != nil || !ok {
		return nil, nil, fmt.Errorf("sharded constraints of %s: ok=%v err=%v", unsafe.Name, ok, err)
	}
	sp = begin(tctx, "analysis.check_prepared")
	res, err := analysis.CheckPrepared(ctx, "spp-"+unsafe.Name, analysis.StrictMonotonicity, cons, smt.Native{})
	checkMS := sp.end()
	if err != nil || res.Sat {
		return nil, nil, fmt.Errorf("classic check of %s: sat=%v err=%v", unsafe.Name, res.Sat, err)
	}
	if c := exactStats(res).core; c != w.stats[3].core {
		return nil, nil, fmt.Errorf("%s: classic check on sharded constraints minimized a %d-constraint core, the scale path %d", unsafe.Name, c, w.stats[3].core)
	}
	exact["analysis.core_size"] = float64(len(res.Core))
	return map[string]float64{
		"spp.scale.analyze_ms.safe":        median(safeMS),
		"spp.scale.analyze_ms.unsafe":      median(unsafeMS),
		"spp.scale.allocs":                 mean(allocs),
		"spp.scale.heap_mb":                mean(heapMB),
		"smt.scc.tarjan_ms":                median(tarjanMS),
		"spp.scale.sharded_constraints_ms": shardMS,
		"analysis.check_prepared_ms":       checkMS,
		"topology.generate_s":              w.genS,
	}, exact, nil
}

// finish reports solver counts that did not repeat across analyses of the
// same instance.
func (w *internetWL) finish(context.Context) []string { return w.problems }

func (w *internetWL) close() {}
