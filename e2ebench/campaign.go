package main

// campaign-mixed: a researcher waiting for a differential campaign of
// analysis against simulation.
//
// Why this workload exists: simulation (engine.Runner.Run over simnet and
// the path-vector protocol) is about two thirds of scenario time and the
// classic SPP conversion plus analysis about a quarter, so it is the
// workload for the simulator hot path and for the campaign half of the
// one-SPP-pipeline work. It never touches the scale path, the delta
// verifier or the server.
//
// Shape: Session.Campaign over every kind in scenario.Kinds() except
// divergent-fixture (a deliberately mislabelled self-test whose outcome is
// a divergence by design), cycling, with parallelism = GOMAXPROCS and no
// shrinking. The run walks a fixed seed range of campaignBatches campaigns
// of campaignBatch scenarios each, starting over when it reaches the end.
// An op is one scenario; a latency sample is one Campaign call.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"fsr"
	"fsr/internal/analysis"
	"fsr/internal/engine"
	"fsr/internal/scenario"
	"fsr/internal/smt"
)

const (
	// campaignBatch is two scenarios of each of the nine kinds.
	campaignBatch   = 18
	campaignBatches = 64
	// campaignHorizon is Session.Campaign's default simulation horizon.
	campaignHorizon = 5 * time.Second
	// campaignCensus is how many scenarios, from the start of the range,
	// the census runs layer by layer (twice, for the determinism check).
	campaignCensus = 144
)

type campaignWL struct {
	sess    *fsr.Session
	kinds   []scenario.Kind
	base    int64
	next    int // next batch index; advances across phases
	workers int
	fp      string
}

// campaignKinds is scenario.Kinds() without the divergent fixture.
func campaignKinds() []scenario.Kind {
	var out []scenario.Kind
	for _, k := range scenario.Kinds() {
		if k != scenario.DivergentFixture {
			out = append(out, k)
		}
	}
	return out
}

func setupCampaign(_ context.Context, seed int64) (workload, error) {
	kinds := campaignKinds()
	if campaignBatch%len(kinds) != 0 {
		return nil, fmt.Errorf("batch %d does not cycle evenly over %d kinds", campaignBatch, len(kinds))
	}
	w := &campaignWL{
		kinds:   kinds,
		base:    1 + (seed%1_000_000+1_000_000)%1_000_000*campaignBatch*campaignBatches,
		workers: runtime.GOMAXPROCS(0),
	}
	w.sess = fsr.NewSession(fsr.WithParallelism(w.workers))
	// Generate the whole seed range once to fingerprint it (the campaign
	// regenerates each scenario from its seed, as it always does).
	fp := newFingerprint("campaign-mixed")
	n := campaignBatch * campaignBatches
	for i := 0; i < n; i++ {
		sc, err := scenario.Generate(kinds[i%len(kinds)], w.base+int64(i))
		if err != nil {
			return nil, err
		}
		fp.str(string(sc.Kind))
		fp.int(sc.Seed)
		fp.int(int64(sc.Expected))
		fp.instance(sc.Instance)
		if sc.Plan != nil {
			b, err := json.Marshal(sc.Plan)
			if err != nil {
				return nil, err
			}
			fp.bytes(b)
		}
	}
	w.fp = fp.sum()
	return w, nil
}

func (w *campaignWL) fingerprint() string { return w.fp }

func (w *campaignWL) run(ctx, tctx context.Context, stop *stopRule) (*tally, map[string]float64) {
	t := &tally{}
	for stop.next() {
		b := w.next % campaignBatches
		w.next++
		sp := begin(tctx, "campaign.batch")
		rep, err := w.sess.Campaign(ctx, fsr.CampaignSpec{
			Kinds:       w.kinds,
			Count:       campaignBatch,
			BaseSeed:    w.base + int64(b*campaignBatch),
			Parallelism: w.workers,
		})
		lat := sp.end()
		if err != nil {
			t.fail(campaignBatch, false, fmt.Sprintf("campaign batch %d: %v", b, err))
			continue
		}
		bad := int64(0)
		for _, r := range rep.Results {
			if r.Outcome != scenario.OutcomeAgreement {
				bad++
				t.fail(1, r.Outcome != scenario.OutcomeError && r.Outcome != scenario.OutcomeTimeout,
					fmt.Sprintf("scenario %s seed %d: %s %s", r.Kind, r.Seed, r.Outcome, r.Err))
			}
		}
		t.ok(campaignBatch-bad, lat)
		stop.sampled()
	}
	return t, nil
}

// scenarioRun is one scenario's layer-by-layer outcome.
type scenarioRun struct {
	kind    scenario.Kind
	outcome scenario.Outcome
	err     error
	rep     *engine.RunReport
	genMS   float64
	convMS  float64
	checkMS float64
	runMS   float64
	totalMS float64
	mallocs uint64
}

// runOneLayered does what the campaign does for one scenario — generate,
// convert, analyze, simulate, classify — calling each layer directly so
// each can be timed.
func (w *campaignWL) runOneLayered(ctx, tctx context.Context, i int, countAllocs bool) (out scenarioRun) {
	kind := w.kinds[i%len(w.kinds)]
	seed := w.base + int64(i)
	out = scenarioRun{kind: kind, outcome: scenario.OutcomeError}
	root := begin(tctx, "scenario."+string(kind))
	defer func() { out.totalMS = root.end() }()
	sp := begin(root.ctx, "scenario.generate")
	sc, err := scenario.Generate(kind, seed)
	out.genMS = sp.end()
	if err != nil {
		out.err = err
		return out
	}
	sp = begin(root.ctx, "spp.convert")
	conv, err := sc.Instance.ToAlgebra()
	out.convMS = sp.end()
	if err != nil {
		out.err = err
		return out
	}
	sp = begin(root.ctx, "analysis.check")
	res, err := analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
	out.checkMS = sp.end()
	if err != nil {
		out.err = err
		return out
	}
	var before runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&before)
	}
	sp = begin(root.ctx, "engine.run")
	rep, err := engine.SimRunner{}.Run(ctx, conv, engine.RunOptions{Seed: seed, Horizon: campaignHorizon, Plan: sc.Plan})
	out.runMS = sp.end()
	if countAllocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		out.mallocs = after.Mallocs - before.Mallocs
	}
	if err != nil {
		out.err = err
		return out
	}
	out.rep = rep
	out.outcome = classify(sc.Expected, res.Sat, rep.Converged)
	return out
}

// classify mirrors the campaign's outcome classes for a scenario whose
// simulation ran.
func classify(expected scenario.Expectation, sat, converged bool) scenario.Outcome {
	switch {
	case expected == scenario.ExpectSafe && !sat, expected == scenario.ExpectUnsafe && sat:
		return scenario.OutcomeMismatch
	case sat && !converged:
		return scenario.OutcomeDivergence
	case !sat && converged:
		return scenario.OutcomeConservative
	}
	return scenario.OutcomeAgreement
}

// census runs the first campaignCensus scenarios of the range one at a
// time, layer by layer, twice. It reports the mean time per scenario in
// each layer and per kind over both passes, and sums the simulator's exact
// counts, which must agree bit for bit between the passes. Allocations per
// simulation are counted on the first pass.
func (w *campaignWL) census(ctx, tctx context.Context) (layers, exact map[string]float64, err error) {
	var passes [2]map[string]float64
	var gen, conv, check, run, allocs []float64
	byKind := map[scenario.Kind][]float64{}
	for p := range passes {
		var msgs, bytes, changes int64
		var simTime time.Duration
		for i := 0; i < campaignCensus; i++ {
			r := w.runOneLayered(ctx, tctx, i, p == 0)
			if r.outcome != scenario.OutcomeAgreement {
				return nil, nil, fmt.Errorf("census scenario %d (%s): %s %v", i, r.kind, r.outcome, r.err)
			}
			gen = append(gen, r.genMS)
			conv = append(conv, r.convMS)
			check = append(check, r.checkMS)
			run = append(run, r.runMS)
			byKind[r.kind] = append(byKind[r.kind], r.totalMS)
			msgs += int64(r.rep.Messages)
			bytes += r.rep.Bytes
			changes += r.rep.RouteChanges
			simTime += r.rep.Time
			if p == 0 {
				allocs = append(allocs, float64(r.mallocs))
			}
		}
		passes[p] = map[string]float64{
			"engine.messages":      float64(msgs),
			"engine.bytes":         float64(bytes),
			"engine.route_changes": float64(changes),
			"engine.sim_time_s":    simTime.Seconds(),
		}
	}
	if d := diffExact(passes[0], passes[1]); d != "" {
		return nil, nil, fmt.Errorf("simulation counts differ between two passes over the same scenarios: %s", d)
	}
	layers = map[string]float64{
		"scenario.generate_ms": mean(gen),
		"spp.convert_ms":       mean(conv),
		"analysis.check_ms":    mean(check),
		"engine.run_ms":        mean(run),
		"engine.run_allocs":    mean(allocs),
	}
	for _, k := range w.kinds {
		layers["scenario.kind_ms."+string(k)] = mean(byKind[k])
	}
	return layers, passes[0], nil
}

// finish has nothing left to check: every scenario's outcome was checked
// as it completed.
func (w *campaignWL) finish(context.Context) []string { return nil }

func (w *campaignWL) close() {}
