// Command e2ebench is FSR's end-to-end benchmark. It measures the three
// things FSR users wait for, one named workload each:
//
//   - serve-whatif: an operator's what-if verdicts from a loopback
//     `fsr serve` handler holding two resident internet:5000 tenants;
//   - campaign-mixed: a researcher's differential campaign (analysis
//     against simulation) over every honest scenario kind;
//   - internet-analyze: an analyst's safety verdict on internet:50000
//     topologies, three safe instances to one with a planted dispute.
//
// Usage:
//
//	e2ebench --workload NAME --seed N --seconds S --trace 0|1
//	e2ebench compare OLD.json NEW.json
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of all three workloads instead (see README.md). Inputs derive from
// --seed only; every answer is checked against the value known by
// construction, and wrong answers count as failures. A full record of the
// run (samples, input fingerprint, machine) is written under
// .bench_build/e2ebench/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"fsr"
)

// An untraced run sets its workload up at least setupReps times and until
// setupMin has passed, and reports the median as setup_s: a set-up of a
// fraction of a second needs more repetitions to give a steady median.
const (
	setupReps = 3
	setupMin  = 3 * time.Second
)

// overheadSlice is how long a traced run measures in one mode before it
// switches between tracing off and on.
const overheadSlice = time.Second

// workloadSpec names a workload and fixes its tail percentile.
type workloadSpec struct {
	name string
	// tailPM is the latency_tail_ms percentile, in per-mille: the highest
	// one that still has at least tailBeyond samples above it at the
	// workload's sample rate on a 2-core host.
	tailPM int
	setup  func(ctx context.Context, seed int64) (workload, error)
	// shortOps bounds the pass a traced run of another workload makes
	// over this one to fill in this workload's per-layer metrics, in
	// operations (requests, Campaign calls or analyses).
	shortOps int64
}

// workload is one set-up workload instance.
type workload interface {
	fingerprint() string
	// run drives the workload until stop ends the phase and returns the
	// per-layer metrics its answers carry (nil if they carry none). The
	// program's calls get ctx; the benchmark's own spans go on tctx, which
	// carries a tracer in a traced phase, so traced and untraced phases
	// make the same calls.
	run(ctx, tctx context.Context, stop *stopRule) (*tally, map[string]float64)
	// census does a fixed amount of work layer by layer and returns the
	// per-layer metrics it measures plus the exact counts, which must not
	// vary between runs of the same code on the same inputs.
	census(ctx, tctx context.Context) (layers, exact map[string]float64, err error)
	// finish runs the post-run correctness checks and returns what failed.
	finish(ctx context.Context) []string
	close()
}

var workloads = []workloadSpec{
	{name: "serve-whatif", tailPM: 950, setup: setupServe, shortOps: 60},
	{name: "campaign-mixed", tailPM: 900, setup: setupCampaign, shortOps: 8},
	{name: "internet-analyze", tailPM: 800, setup: setupInternet, shortOps: 8},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// stopRule ends a phase: after a deadline (extended until the tail
// percentile has enough samples, up to a hard stop), or after a fixed
// number of operations.
type stopRule struct {
	deadline, hardStop time.Time
	minSamples         int64
	maxOps             int64
	claimed, samples   atomic.Int64
}

func timeStop(d time.Duration, minSamples int) *stopRule {
	now := time.Now()
	return &stopRule{deadline: now.Add(d), hardStop: now.Add(3 * d), minSamples: int64(minSamples)}
}

func countStop(n int64) *stopRule { return &stopRule{maxOps: n} }

// next reports whether another operation may start, claiming it.
func (s *stopRule) next() bool {
	if s.maxOps > 0 {
		return s.claimed.Add(1) <= s.maxOps
	}
	now := time.Now()
	if now.Before(s.deadline) {
		return true
	}
	return s.samples.Load() < s.minSamples && now.Before(s.hardStop)
}

// sampled counts one finished latency sample.
func (s *stopRule) sampled() { s.samples.Add(1) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits are the metrics of an untraced run.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
	"ok_frac":         "frac",
	"peak_rss_mb":     "MB",
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: serve-whatif, campaign-mixed or internet-analyze")
		seed    = flag.Int64("seed", 1, "seed every input of the workload derives from")
		seconds = flag.Int("seconds", 15, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	rec := &record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, TailPM: w.tailPM}
	rec.Machine = currentMachine(root)
	out := filepath.Join(root, ".bench_build", "e2ebench")
	ctx := context.Background()
	if *trace == 1 {
		err = runTraced(ctx, w, *seed, time.Duration(*seconds)*time.Second, out, rec)
	} else {
		err = runUntraced(ctx, w, *seed, time.Duration(*seconds)*time.Second, rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "e2ebench: problem:", p)
	}
	if path, err := writeRecord(out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: writing record:", err)
	} else {
		fmt.Fprintln(os.Stderr, "e2ebench: record", path)
	}
	b, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runUntraced measures the end-to-end metrics: set up repeatedly (see setupMin),
// run one timed phase with tracing off, then check the program's state.
func runUntraced(ctx context.Context, w workloadSpec, seed int64, d time.Duration, rec *record) error {
	var st workload
	for begin := time.Now(); len(rec.SetupS) < setupReps || time.Since(begin) < setupMin; {
		if st != nil {
			st.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if st, err = w.setup(ctx, seed); err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(start).Seconds())
	}
	defer st.close()
	rec.Fingerprint = st.fingerprint()
	runtime.GC() // start timing on a heap without set-up garbage
	start := time.Now()
	t, _ := st.run(ctx, ctx, timeStop(d, minSamples(w.tailPM)))
	elapsed := time.Since(start)
	checks := st.finish(ctx)
	lat := sortedCopy(t.latMS)
	if beyond(len(lat), w.tailPM) < tailBeyond {
		return fmt.Errorf("%s: %d latency samples leave fewer than %d above p%g", w.name, len(lat), tailBeyond, float64(w.tailPM)/10)
	}
	m := map[string]float64{
		"setup_s":         median(rec.SetupS),
		"ops_per_s":       float64(t.ops) / elapsed.Seconds(),
		"latency_p50_ms":  percentile(lat, 500),
		"latency_tail_ms": percentile(lat, w.tailPM),
		"ok_frac":         1 - t.failFrac(),
		"peak_rss_mb":     peakRSSMB(),
	}
	rec.LatencyMS = t.latMS
	rec.Problems = append(t.problems, checks...)
	rec.Result = makeResult(t, len(checks) == 0, m, endToEndUnits)
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d ops in %.1fs, %d latency samples, tail p%g, %d failed\n",
		w.name, seed, t.ops, elapsed.Seconds(), len(lat), float64(w.tailPM)/10, t.failed)
	return nil
}

// runTraced measures the per-layer metrics. The two other workloads come
// first, with a short traced pass and their census each, so every traced
// run reports every layer. Then the named workload runs for the run time
// in alternating untraced and traced slices, making the same calls in
// both (their throughput ratio is trace.overhead_frac), then its census.
// Exact counts are compared with those of the previous traced run of the
// same inputs and code, if one left its counts behind.
func runTraced(ctx context.Context, w workloadSpec, seed int64, d time.Duration, out string, rec *record) error {
	tr := fsr.NewTracer()
	r := &tracedRun{tctx: fsr.WithTracer(ctx, tr), layers: map[string]float64{}, exact: map[string]float64{}, out: out, rec: rec}
	for _, o := range workloads {
		if o.name != w.name {
			if err := r.pass(ctx, o, seed, 0); err != nil {
				return err
			}
		}
	}
	if err := r.pass(ctx, w, seed, d); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed)), tr); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: writing trace:", err)
	}
	var missing []string
	for name := range layerUnits {
		if v, ok := r.layers[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("traced run measured no value for %v", missing)
	}
	rec.Exact = r.exact
	rec.Problems = append(r.total.problems, r.problems...)
	rec.Result = makeResult(&r.total, len(r.problems) == 0, r.layers, layerUnits)
	return nil
}

func writeTrace(path string, tr *fsr.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRun accumulates the passes of one traced run.
type tracedRun struct {
	tctx          context.Context // carries the run's tracer, for the benchmark's spans
	layers, exact map[string]float64
	total         tally
	problems      []string // failed post-run and determinism checks
	out           string
	rec           *record
}

// pass sets one workload up and runs it: for d in alternating untraced
// and traced slices, or, with d = 0, for the workload's shortOps
// operations traced. It then takes the census, traced, checks the
// program's state and closes the workload.
func (r *tracedRun) pass(ctx context.Context, w workloadSpec, seed int64, d time.Duration) error {
	st, err := w.setup(ctx, seed)
	if err != nil {
		return fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer st.close()
	fp := st.fingerprint()
	runtime.GC()
	if d == 0 {
		tt, l := st.run(ctx, r.tctx, countStop(w.shortOps))
		merge(r.layers, l)
		r.total.merge(tt)
	} else {
		r.rec.Fingerprint = fp
		// Alternate untraced and traced slices, so both modes meet the
		// same host conditions and the same stretch of the workload's
		// input sequence.
		var ops [2]int64
		var secs [2]float64
		for i, begin := 0, time.Now(); i%2 == 1 || time.Since(begin) < d; i++ {
			tctx := ctx
			if i%2 == 1 {
				tctx = r.tctx
			}
			start := time.Now()
			t, l := st.run(ctx, tctx, timeStop(overheadSlice, 1))
			secs[i%2] += time.Since(start).Seconds()
			ops[i%2] += t.ops
			r.total.merge(t)
			merge(r.layers, l)
		}
		r.layers["trace.overhead_frac"] = 1 - (float64(ops[1])/secs[1])/(float64(ops[0])/secs[0])
	}
	l, ex, err := st.census(ctx, r.tctx)
	if err != nil {
		return fmt.Errorf("%s census: %w", w.name, err)
	}
	merge(r.layers, l)
	merge(r.layers, ex)
	merge(r.exact, ex)
	r.problems = append(r.problems, st.finish(ctx)...)
	if p := checkExact(filepath.Join(r.out, "census"), w.name, fp, r.rec.Machine.Source, ex); p != "" {
		r.problems = append(r.problems, p)
	}
	return nil
}

// checkExact compares a workload's exact counts with those an earlier
// traced run of the same inputs and code stored, storing them if none did.
func checkExact(dir, name, fp, source string, ex map[string]float64) string {
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%s.json", name, fp, source))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Sprintf("%s: unreadable earlier census %s: %v", name, path, err)
		}
		if d := diffExact(prev, ex); d != "" {
			return fmt.Sprintf("%s: exact counts differ from an earlier traced run of the same code and inputs: %s", name, d)
		}
		return ""
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Sprintf("%s: reading earlier census: %v", name, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Sprintf("%s: storing census: %v", name, err)
	}
	b, _ := json.Marshal(ex)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Sprintf("%s: storing census: %v", name, err)
	}
	return ""
}

// diffExact names the first count that differs between two censuses
// ("" when they agree bit for bit).
func diffExact(a, b map[string]float64) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		va, oka := a[k]
		vb, okb := b[k]
		if oka != okb || math.Float64bits(va) != math.Float64bits(vb) {
			return fmt.Sprintf("%s: %v vs %v", k, va, vb)
		}
	}
	return ""
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// makeResult reports the metrics named in units. The run is correct when
// no answer was wrong and every post-run check passed; errors and refusals
// count as failed without making it incorrect.
func makeResult(t *tally, checksPassed bool, values map[string]float64, units map[string]string) result {
	r := result{
		Correct:   t.wrong == 0 && checksPassed,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range units {
		r.Metrics[name] = metric{Value: values[name], Unit: unit}
	}
	return r
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
