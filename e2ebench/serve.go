package main

// serve-whatif: an operator waiting for what-if verdicts from `fsr serve`.
//
// Why this workload exists: it is the only one where the server, the
// resident spp.DeltaVerifier and smt.DeltaContext do the work. Its set-up
// is dominated by the classic constraint build inside NewDeltaVerifier
// (two internet:5000 tenants), and its mix puts writes (committed edits)
// beside reads (verifies and discarded what-ifs).
//
// Shape: the real daemon (fsr.Serve with production defaults, no oracle)
// on a loopback port; two resident tenants internet:5000:<seed> and
// internet:5000:<seed+1>; one closed-loop client per tenant, because
// what-if callers wait for the verdict before asking the next question.
// Each client replays a precomputed seeded sequence of blocks of ten
// requests — four verify, three whatif_discard, two whatif_commit, one
// analyze — shuffled within the block:
//
//   - verify: the resident instance, always safe;
//   - whatif_discard: clone, edit, verify. One in three plants a dispute
//     pair on a session u↔v through two rerank ops, so the verdict is
//     unsafe and the suspects are exactly {u, v}; the rest drop a node's
//     least preferred path, which removes constraints and stays safe.
//     Edited nodes and planted sessions are drawn uniformly;
//   - whatif_commit: the block's first commit applies an edit (seven in
//     ten drop a node's least preferred path, three in ten drop a
//     session), the second undoes it (re-rank back, or add the session
//     and re-rank the nodes it pruned), so every block ends in the start
//     state;
//   - analyze: POST /v1/analyze with an inline gao-rexford-internet
//     scenario instance, whose verdict the generator guarantees.
//
// The proportions — 4:3:2:1 per block, one planted pair in three
// discards, seven toggles to three session drops among commits, uniform
// choice of edited nodes — are assumptions, not measurements: the
// repository holds no recorded operator traffic. Replace them when it
// does; the per-class medians of a traced run let a reader re-weight.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"fsr"
	"fsr/internal/obs"
	"fsr/internal/scenario"
	"fsr/internal/spp"
)

const (
	serveNodes   = 5000
	serveTenants = 2 // one client and one connection each: nproc on the 2-core reference host
	// serveBlocks is the sequence length per client in blocks of ten; a
	// run that gets through all of them starts over (each block ends in
	// the start state).
	serveBlocks       = 300
	serveAnalyzeCases = 16
	// serveReplayPerClass is how many responses per request class and
	// tenant are re-derived by an independent path after the run.
	serveReplayPerClass = 2
	// serveCensusEdits is how many discarded what-ifs the census replays
	// directly on a DeltaVerifier to time clone, edit and verify.
	serveCensusEdits = 24
)

// The four request classes.
const (
	classVerify  = "verify"
	classDiscard = "whatif_discard"
	classCommit  = "whatif_commit"
	classAnalyze = "analyze"
)

var serveClasses = []string{classVerify, classDiscard, classCommit, classAnalyze}

// blockClasses is one block's request mix before shuffling.
var blockClasses = []string{
	classVerify, classVerify, classVerify, classVerify,
	classDiscard, classDiscard, classDiscard,
	classCommit, classCommit,
	classAnalyze,
}

// whatIfOp is the daemon's what-if edit wire form.
type whatIfOp struct {
	Op    string   `json:"op"`
	Node  string   `json:"node,omitempty"`
	Paths []string `json:"paths,omitempty"`
	A     string   `json:"a,omitempty"`
	B     string   `json:"b,omitempty"`
	Cost  int      `json:"cost,omitempty"`
}

// edit is a committed change and the batch that undoes it.
type edit struct{ apply, undo []whatIfOp }

// request is one precomputed client request with its expected answer.
type request struct {
	class string
	path  string
	body  []byte
	// ops are the what-if edits; base is the committed edit in force
	// before the request (-1: the start state); after is the one in force
	// once it completes.
	ops         []whatIfOp
	base, after int
	planted     bool
	analyze     int // analyze case index, -1 for other classes
	// wantSafe and wantSuspects are known by construction.
	wantSafe     bool
	wantSuspects []string
}

// analyzeCase is one inline instance for POST /v1/analyze.
type analyzeCase struct {
	in           *spp.Instance
	body         []byte
	wantSafe     bool
	wantSuspects []string
}

type tenant struct {
	id        string
	gadget    string
	start     *spp.Instance
	startHash string
	edits     []edit
	seq       []request
	pos       int // next sequence index; advances across phases
	inForce   int // committed edit in force, -1 for none
	client    *http.Client
	// replay holds a few answered requests per class for the post-run
	// re-derivation; replayed counts them by class.
	replay   []answered
	replayed map[string]int
}

type answered struct {
	idx      int
	safe     bool
	suspects []string
}

type serveWL struct {
	base    string
	stop    context.CancelFunc
	done    chan error
	tenants []*tenant
	cases   []analyzeCase
	fp      string
	// traced accumulates the answers of every traced phase, for the
	// per-layer metrics.
	traced []reqResult
}

// verdictResp is the part of a verify, what-if or analyze response the
// benchmark reads.
type verdictResp struct {
	Safe       bool     `json:"safe"`
	Suspects   []string `json:"suspects"`
	Mode       string   `json:"mode"`
	DurationMS float64  `json:"duration_ms"`
	Error      string   `json:"error"`
}

// reqResult is one answered request, kept for the per-layer metrics.
type reqResult struct {
	class  string
	latMS  float64
	durMS  float64
	respKB float64
	mode   string
}

func setupServe(ctx context.Context, seed int64) (workload, error) {
	w, err := planServe(seed)
	if err != nil {
		return nil, err
	}
	if err := w.startDaemon(ctx); err != nil {
		w.close()
		return nil, err
	}
	// Load both tenants at once, as two operators would, and take each
	// one's first (full) solve, so timing starts on warm resident state.
	errs := make([]error, len(w.tenants))
	var wg sync.WaitGroup
	for i, t := range w.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.load(ctx, t)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// planServe generates the workload's inputs — the tenants' instances, their
// request sequences and the analyze instances — and fingerprints them.
func planServe(seed int64) (*serveWL, error) {
	w := &serveWL{}
	fp := newFingerprint("serve-whatif")
	cases, err := analyzeCases(seed)
	if err != nil {
		return nil, err
	}
	w.cases = cases
	for _, c := range cases {
		fp.bytes(c.body)
	}
	for i := 0; i < serveTenants; i++ {
		gadget := fmt.Sprintf("internet:%d:%d", serveNodes, seed+int64(i))
		in, err := fsr.Gadget(gadget)
		if err != nil {
			return nil, err
		}
		t := &tenant{id: fmt.Sprintf("tenant%d", i), gadget: gadget, start: in, inForce: -1, replayed: map[string]int{}}
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		if err := t.plan(rng, cases); err != nil {
			return nil, fmt.Errorf("%s: %w", gadget, err)
		}
		fp.instance(in)
		for _, r := range t.seq {
			fp.str(r.path)
			fp.bytes(r.body)
		}
		w.tenants = append(w.tenants, t)
	}
	w.fp = fp.sum()
	return w, nil
}

// startDaemon runs fsr.Serve on a free loopback port and waits until it
// answers /healthz.
func (w *serveWL) startDaemon(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close()
	sctx, cancel := context.WithCancel(ctx)
	w.stop, w.done = cancel, make(chan error, 1)
	go func() { w.done <- fsr.Serve(sctx, fsr.ServeOptions{Addr: addr}) }()
	w.base = "http://" + addr
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		select {
		case err := <-w.done:
			w.done <- err
			return fmt.Errorf("fsr serve exited: %v", err)
		default:
		}
		if resp, err := probe.Get(w.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("fsr serve on %s did not come up", addr)
}

func (w *serveWL) load(ctx context.Context, t *tenant) error {
	t.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	body, _ := json.Marshal(map[string]string{"id": t.id, "gadget": t.gadget})
	if _, code, err := w.post(ctx, t, "/v1/instances", body); err != nil || code != http.StatusCreated {
		return fmt.Errorf("loading %s: status %d: %v", t.gadget, code, err)
	}
	h, err := w.snapshotHash(ctx, t)
	if err != nil {
		return err
	}
	if want := canonicalHash(scenario.EncodeInstance(t.start)); h != want {
		return fmt.Errorf("%s: the daemon resolved a different instance than the benchmark planned on", t.gadget)
	}
	t.startHash = h
	raw, code, err := w.post(ctx, t, "/v1/instances/"+t.id+"/verify", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("first verify of %s: status %d: %v", t.id, code, err)
	}
	var v verdictResp
	if err := json.Unmarshal(raw, &v); err != nil || !v.Safe {
		return fmt.Errorf("first verify of %s: want safe, got %s", t.id, clip(raw))
	}
	return nil
}

func (w *serveWL) post(ctx context.Context, t *tenant, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}

// snapshotHash fetches GET /v1/instances/{id} and hashes the instance in
// canonical form.
func (w *serveWL) snapshotHash(ctx context.Context, t *tenant) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/instances/"+t.id, nil)
	if err != nil {
		return "", err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var snap struct {
		Instance scenario.InstanceJSON `json:"instance"`
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", t.id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return "", fmt.Errorf("GET %s: %w", t.id, err)
	}
	return canonicalHash(snap.Instance), nil
}

// canonicalHash hashes an instance as a set of sessions: undoing a session
// drop appends the session at the end of the link list, which changes the
// order but not the instance.
func canonicalHash(j scenario.InstanceJSON) string {
	j.Sessions = append([]scenario.SessionJSON(nil), j.Sessions...)
	j.Origins = append([]string(nil), j.Origins...)
	for i, s := range j.Sessions {
		if s.B < s.A {
			j.Sessions[i].A, j.Sessions[i].B = s.B, s.A
		}
	}
	sort.Slice(j.Sessions, func(a, b int) bool {
		if j.Sessions[a].A != j.Sessions[b].A {
			return j.Sessions[a].A < j.Sessions[b].A
		}
		return j.Sessions[a].B < j.Sessions[b].B
	})
	sort.Strings(j.Origins)
	b, _ := json.Marshal(j) // map keys marshal sorted
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// analyzeCases generates the inline instances for POST /v1/analyze.
func analyzeCases(seed int64) ([]analyzeCase, error) {
	out := make([]analyzeCase, 0, serveAnalyzeCases)
	for k := 0; k < serveAnalyzeCases; k++ {
		sc, err := scenario.Generate(scenario.GaoRexfordInternet, 1+seed*1000+int64(k))
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{"instance": scenario.EncodeInstance(sc.Instance)})
		if err != nil {
			return nil, err
		}
		c := analyzeCase{in: sc.Instance, body: body, wantSafe: sc.Expected == scenario.ExpectSafe}
		if sc.Expected == scenario.ExpectAny {
			return nil, fmt.Errorf("analyze case %d: generator makes no verdict claim", k)
		}
		if !c.wantSafe {
			c.wantSuspects = injectedNodes(sc.Instance)
		}
		out = append(out, c)
	}
	return out, nil
}

// injectedNodes lists the nodes whose rankings a dispute injector
// overwrote: exactly those ranking a path to one of the injector's private
// "rx_" origin tokens. They are the dispute's suspects.
func injectedNodes(in *spp.Instance) []string {
	var out []string
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			if strings.HasPrefix(string(p[len(p)-1]), "rx_") {
				out = append(out, string(n))
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

type session struct{ a, b spp.Node }

func renderPaths(paths []spp.Path) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		hops := make([]string, len(p))
		for j, h := range p {
			hops[j] = string(h)
		}
		out[i] = strings.Join(hops, ",")
	}
	return out
}

// plan builds the tenant's request sequence.
func (t *tenant) plan(rng *rand.Rand, cases []analyzeCase) error {
	in := t.start
	// The destination originates the prefix ([dest r1]); editing it would
	// touch every path, so it is never edited.
	isDest := map[spp.Node]bool{}
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			if len(p) == 2 {
				isDest[n] = true
			}
		}
	}
	var sessions []session
	seen := map[session]bool{}
	for _, l := range in.Links {
		s := session{l.From, l.To}
		if s.b < s.a {
			s = session{l.To, l.From}
		}
		if !seen[s] {
			seen[s] = true
			sessions = append(sessions, s)
		}
	}
	// pruned[s] lists the nodes with a permitted path over session s: the
	// nodes a drop of s prunes and its undo must re-rank.
	pruned := map[session][]spp.Node{}
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			for i := 0; i+2 < len(p); i++ {
				s := session{p[i], p[i+1]}
				if s.b < s.a {
					s = session{p[i+1], p[i]}
				}
				if l := pruned[s]; len(l) == 0 || l[len(l)-1] != n {
					pruned[s] = append(l, n)
				}
			}
		}
	}
	// Session drops: small prune sets, disjoint from each other, away from
	// the destination.
	order := rng.Perm(len(sessions))
	blocked := map[spp.Node]bool{}
	var drops []edit
	dropped := map[session]bool{}
	for _, i := range order {
		s := sessions[i]
		ps := pruned[s]
		if len(drops) == 8 || len(ps) == 0 || len(ps) > 4 || isDest[s.a] || isDest[s.b] {
			continue
		}
		clash := blocked[s.a] || blocked[s.b]
		for _, n := range ps {
			clash = clash || blocked[n]
		}
		if clash {
			continue
		}
		blocked[s.a], blocked[s.b] = true, true
		e := edit{
			apply: []whatIfOp{{Op: "drop-session", A: string(s.a), B: string(s.b)}},
			undo:  []whatIfOp{{Op: "add-session", A: string(s.a), B: string(s.b)}},
		}
		for _, n := range ps {
			blocked[n] = true
			e.undo = append(e.undo, whatIfOp{Op: "rerank", Node: string(n), Paths: renderPaths(in.Permitted[n])})
		}
		drops = append(drops, e)
		dropped[s] = true
	}
	// Toggle nodes: at least two permitted paths and untouched by any
	// drop, so their rankings are always valid to restate. Edited nodes and
	// planted sessions are drawn uniformly: no recorded operator traffic
	// says which nodes operators edit.
	var toggles []spp.Node
	for _, n := range in.Nodes {
		if len(in.Permitted[n]) >= 2 && !blocked[n] && !isDest[n] {
			toggles = append(toggles, n)
		}
	}
	pickToggle := func() spp.Node { return toggles[rng.Intn(len(toggles))] }
	var plants []session
	for _, s := range sessions {
		if !dropped[s] && !isDest[s.a] && !isDest[s.b] {
			plants = append(plants, s)
		}
	}
	if len(drops) == 0 || len(toggles) == 0 || len(plants) == 0 {
		return fmt.Errorf("no edit candidates (drops %d, toggles %d, plants %d)", len(drops), len(toggles), len(plants))
	}
	toggle := func(n spp.Node) []whatIfOp {
		paths := in.Permitted[n]
		return []whatIfOp{{Op: "rerank", Node: string(n), Paths: renderPaths(paths[:len(paths)-1])}}
	}
	base := "/v1/instances/" + t.id
	inForce, nextDrop := -1, 0
	for b := 0; b < serveBlocks; b++ {
		classes := append([]string(nil), blockClasses...)
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		for _, class := range classes {
			r := request{class: class, base: inForce, after: inForce, analyze: -1, wantSafe: true}
			switch class {
			case classVerify:
				r.path = base + "/verify"
			case classDiscard:
				r.path = base + "/whatif"
				if rng.Intn(3) == 0 {
					s := plants[rng.Intn(len(plants))]
					u, v := string(s.a), string(s.b)
					r.ops = []whatIfOp{
						{Op: "rerank", Node: u, Paths: []string{u + "," + v + ",rx_" + v, u + ",rx_" + u}},
						{Op: "rerank", Node: v, Paths: []string{v + "," + u + ",rx_" + u, v + ",rx_" + v}},
					}
					r.planted, r.wantSafe, r.wantSuspects = true, false, []string{u, v}
					sort.Strings(r.wantSuspects)
				} else {
					r.ops = toggle(pickToggle())
				}
			case classCommit:
				r.path = base + "/whatif"
				if inForce < 0 {
					var e edit
					if rng.Intn(10) < 7 {
						n := pickToggle()
						e = edit{apply: toggle(n), undo: []whatIfOp{{Op: "rerank", Node: string(n), Paths: renderPaths(in.Permitted[n])}}}
					} else {
						e = drops[nextDrop%len(drops)]
						nextDrop++
					}
					t.edits = append(t.edits, e)
					r.ops, r.after = e.apply, len(t.edits)-1
				} else {
					r.ops, r.after = t.edits[inForce].undo, -1
				}
				inForce = r.after
			case classAnalyze:
				r.path = "/v1/analyze"
				r.analyze = rng.Intn(len(cases))
				r.body = cases[r.analyze].body
				r.wantSafe, r.wantSuspects = cases[r.analyze].wantSafe, cases[r.analyze].wantSuspects
			}
			if r.ops != nil {
				r.body, _ = json.Marshal(map[string]any{"ops": r.ops, "discard": class == classDiscard})
			}
			t.seq = append(t.seq, r)
		}
	}
	return nil
}

func (w *serveWL) fingerprint() string { return w.fp }

func (w *serveWL) run(ctx, tctx context.Context, stop *stopRule) (*tally, map[string]float64) {
	tallies := make([]*tally, len(w.tenants))
	results := make([][]reqResult, len(w.tenants))
	var wg sync.WaitGroup
	for i, t := range w.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[i], results[i] = w.drive(ctx, tctx, t, stop)
		}()
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(tallies[i])
	}
	if obs.TracerFromContext(tctx) == nil {
		return total, nil
	}
	for _, rs := range results {
		w.traced = append(w.traced, rs...)
	}
	return total, serveLayers(w.traced)
}

// drive is one closed-loop client: it sends its tenant's next request
// only after the previous answer arrived.
func (w *serveWL) drive(ctx, tctx context.Context, t *tenant, stop *stopRule) (*tally, []reqResult) {
	tl := &tally{}
	var results []reqResult
	for stop.next() {
		idx := t.pos % len(t.seq)
		r := &t.seq[idx]
		t.pos++
		sp := begin(tctx, "server."+r.class)
		raw, code, err := w.post(ctx, t, r.path, r.body)
		lat := sp.end()
		if r.class == classCommit {
			t.inForce = r.after
		}
		v, why, wrong := check(r, raw, code, err)
		if why != "" {
			tl.fail(1, wrong, fmt.Sprintf("%s #%d %s: %s", t.id, idx, r.class, why))
			continue
		}
		tl.ok(1, lat)
		stop.sampled()
		results = append(results, reqResult{class: r.class, latMS: lat, durMS: v.DurationMS, respKB: float64(len(raw)) / 1024, mode: v.Mode})
		t.keepForReplay(idx, r, v)
	}
	return tl, results
}

// check compares a response with the answer known by construction. why
// is empty when it matches; wrong distinguishes a contradicting answer
// from an error or refusal.
func check(r *request, raw []byte, code int, err error) (v verdictResp, why string, wrong bool) {
	if err != nil {
		return v, err.Error(), false
	}
	if jerr := json.Unmarshal(raw, &v); jerr != nil {
		return v, fmt.Sprintf("status %d, undecodable body: %v", code, jerr), false
	}
	if code != http.StatusOK {
		return v, fmt.Sprintf("status %d: %s", code, v.Error), false
	}
	if v.Safe != r.wantSafe || !sameSet(v.Suspects, r.wantSuspects) {
		return v, fmt.Sprintf("verdict safe=%v suspects=%v, want safe=%v suspects=%v", v.Safe, v.Suspects, r.wantSafe, r.wantSuspects), true
	}
	return v, "", false
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// keepForReplay samples the first few answers of each kind.
func (t *tenant) keepForReplay(idx int, r *request, v verdictResp) {
	kind := r.class
	if r.planted {
		kind += "/planted"
	}
	if t.replayed[kind] < serveReplayPerClass {
		t.replayed[kind]++
		t.replay = append(t.replay, answered{idx: idx, safe: v.Safe, suspects: v.Suspects})
	}
}

// serveLayers derives the server-side per-layer metrics from one traced
// phase's answers.
func serveLayers(all []reqResult) map[string]float64 {
	out := map[string]float64{}
	var over, kb []float64
	byClass := map[string][]float64{}
	modes := map[string]int{}
	nModes := 0
	for _, r := range all {
		// A verify's duration_ms covers all the handler's solver work; a
		// what-if's leaves out the clone and the edits, and an analyze's
		// the instance decoding, so only verifies measure the server alone.
		if r.class == classVerify {
			over = append(over, r.latMS-r.durMS)
		}
		kb = append(kb, r.respKB)
		byClass[r.class] = append(byClass[r.class], r.latMS)
		if r.class != classAnalyze {
			modes[r.mode]++
			nModes++
		}
	}
	out["server.overhead_ms"] = median(over)
	out["server.resp_kb"] = median(kb)
	for _, c := range serveClasses {
		out["server.latency_p50_ms."+c] = median(byClass[c])
	}
	for _, m := range []string{"cached", "delta", "full"} {
		out["smt.delta.mode_share."+m] = float64(modes[m]) / float64(nModes)
	}
	return out
}

// census times the delta verifier's layers directly, outside the daemon:
// a fresh load of tenant 0, then the first serveCensusEdits discarded
// what-ifs of its sequence replayed as clone, edit and verify.
func (w *serveWL) census(ctx, tctx context.Context) (layers, exact map[string]float64, err error) {
	t := w.tenants[0]
	sp := begin(tctx, "spp.delta.load")
	v, err := spp.NewDeltaVerifier(t.start)
	loadMS := sp.end()
	if err != nil {
		return nil, nil, err
	}
	res, _, err := v.Verify(ctx)
	if err != nil || !res.Sat {
		return nil, nil, fmt.Errorf("census verify of %s: sat=%v err=%v", t.id, res.Sat, err)
	}
	var cloneMS, editMS, verifyMS, affected []float64
	for i := range t.seq {
		r := &t.seq[i]
		if r.class != classDiscard {
			continue
		}
		if len(cloneMS) == serveCensusEdits {
			break
		}
		root := begin(tctx, "spp.delta.whatif")
		sp := begin(root.ctx, "spp.delta.clone")
		c := v.Clone()
		cloneMS = append(cloneMS, sp.end())
		sp = begin(root.ctx, "spp.delta.edit")
		for _, op := range r.ops {
			if err := applyDelta(c, op); err != nil {
				return nil, nil, fmt.Errorf("census edit: %w", err)
			}
		}
		editMS = append(editMS, sp.end())
		before := c.DeltaStats()
		sp = begin(root.ctx, "spp.delta.verify")
		got, sus, err := c.Verify(ctx)
		verifyMS = append(verifyMS, sp.end())
		root.end()
		if err != nil {
			return nil, nil, err
		}
		if got.Sat != r.wantSafe || !sameSet(nodeStrings(sus), r.wantSuspects) {
			return nil, nil, fmt.Errorf("census what-if #%d: safe=%v suspects=%v, want %v %v", i, got.Sat, sus, r.wantSafe, r.wantSuspects)
		}
		if after := c.DeltaStats(); after.DeltaSolves > before.DeltaSolves {
			affected = append(affected, float64(after.LastAffected))
		}
	}
	return map[string]float64{
		"spp.delta.load_s":    loadMS / 1e3,
		"spp.delta.clone_ms":  median(cloneMS),
		"spp.delta.edit_ms":   median(editMS),
		"spp.delta.verify_ms": median(verifyMS),
		"smt.delta.affected":  median(affected),
	}, map[string]float64{}, nil
}

func applyDelta(v *spp.DeltaVerifier, op whatIfOp) error {
	switch op.Op {
	case "rerank":
		return v.ReRank(spp.Node(op.Node), parsePaths(op.Paths)...)
	case "drop-session":
		return v.DropSession(spp.Node(op.A), spp.Node(op.B))
	case "add-session":
		return v.AddSession(spp.Node(op.A), spp.Node(op.B), op.Cost)
	}
	return fmt.Errorf("unknown op %q", op.Op)
}

// applyInstance applies what-if ops to a copy of an instance with the
// instance's own mutators — an independent path to the state the daemon's
// delta verifier should hold.
func applyInstance(in *spp.Instance, ops []whatIfOp) *spp.Instance {
	out := in.Clone()
	for _, op := range ops {
		switch op.Op {
		case "rerank":
			out.Rank(spp.Node(op.Node), parsePaths(op.Paths)...)
		case "drop-session":
			out = out.RemoveSession(spp.Node(op.A), spp.Node(op.B))
		case "add-session":
			out.AddSession(spp.Node(op.A), spp.Node(op.B), op.Cost)
		}
	}
	return out
}

func parsePaths(ps []string) []spp.Path {
	out := make([]spp.Path, len(ps))
	for i, s := range ps {
		for _, h := range strings.Split(s, ",") {
			out[i] = append(out[i], spp.Node(h))
		}
	}
	return out
}

func nodeStrings(ns []spp.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = string(n)
	}
	return out
}

// finish undoes a committed edit left in force by the end of the run,
// checks that each tenant's snapshot hash is back to its start value, and
// re-derives a sample of answers by an independent path: tenant states
// rebuilt with the instance's own mutators and decided by
// Session.AnalyzeSPP, analyze instances decided by DeltaVerifier.VerifyFull.
func (w *serveWL) finish(ctx context.Context) []string {
	var problems []string
	sess := fsr.NewSession()
	for _, t := range w.tenants {
		if t.inForce >= 0 {
			r := &request{class: classCommit, ops: t.edits[t.inForce].undo, wantSafe: true}
			body, _ := json.Marshal(map[string]any{"ops": r.ops})
			raw, code, err := w.post(ctx, t, "/v1/instances/"+t.id+"/whatif", body)
			if _, why, _ := check(r, raw, code, err); why != "" {
				problems = append(problems, fmt.Sprintf("%s: undoing the last commit: %s", t.id, why))
			}
			t.inForce = -1
		}
		if h, err := w.snapshotHash(ctx, t); err != nil {
			problems = append(problems, fmt.Sprintf("%s: end snapshot: %v", t.id, err))
		} else if h != t.startHash {
			problems = append(problems, fmt.Sprintf("%s: snapshot hash %s at the end, %s at the start", t.id, h, t.startHash))
		}
		for _, a := range t.replay {
			r := &t.seq[a.idx]
			var safe bool
			var suspects []string
			if r.class == classAnalyze {
				v, err := spp.NewDeltaVerifier(w.cases[r.analyze].in)
				if err != nil {
					problems = append(problems, fmt.Sprintf("replay %s #%d: %v", t.id, a.idx, err))
					continue
				}
				res, sus, err := v.VerifyFull(ctx)
				if err != nil {
					problems = append(problems, fmt.Sprintf("replay %s #%d: %v", t.id, a.idx, err))
					continue
				}
				safe, suspects = res.Sat, nodeStrings(sus)
			} else {
				in := t.start
				if r.base >= 0 {
					in = applyInstance(in, t.edits[r.base].apply)
				}
				res, sus, err := sess.AnalyzeSPP(ctx, applyInstance(in, r.ops))
				if err != nil {
					problems = append(problems, fmt.Sprintf("replay %s #%d: %v", t.id, a.idx, err))
					continue
				}
				safe, suspects = res.Sat, nodeStrings(sus)
			}
			if safe != a.safe || !sameSet(suspects, a.suspects) {
				problems = append(problems, fmt.Sprintf("replay %s #%d %s: daemon said safe=%v suspects=%v, independent path says safe=%v suspects=%v",
					t.id, a.idx, r.class, a.safe, a.suspects, safe, suspects))
			}
		}
	}
	return problems
}

func (w *serveWL) close() {
	for _, t := range w.tenants {
		if t.client != nil {
			t.client.CloseIdleConnections()
		}
	}
	if w.stop != nil {
		w.stop()
		<-w.done
		w.stop = nil
		// The daemon turns the process-wide flight recorder on; turn it
		// back off so later passes in this process run as they would alone.
		fsr.EnableFlightRecorder(false)
	}
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}
