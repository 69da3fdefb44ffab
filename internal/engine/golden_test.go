package engine_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsr/internal/engine"
	"fsr/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sim_reports.golden from the current simulator")

const simGoldenFile = "sim_reports.golden"

// goldenSeeds and goldenOptions span the compiled simulator's
// deterministic paths: the campaign options (every churn kind's fault plan
// included), and a batched, staggered run that draws from the per-node
// random sources for start offsets and flush jitter.
var goldenSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

var goldenOptions = []struct {
	name           string
	batch, stagger time.Duration
}{
	{"campaign", 0, 0},
	{"batched", 200 * time.Millisecond, 150 * time.Millisecond},
}

// TestSimRunnerGolden pins every RunReport of the compiled simulator —
// best routes, convergence time, message, byte and route-change counts,
// fault effects — for every scenario kind, as the SHA-256 of its JSON.
// Simulation reports are deterministic per seed; any drift means a change
// perturbed protocol behaviour, which silently invalidates recorded
// campaign corpora and benchmark counts keyed by seed. Regenerate with
// -update only for an intended behaviour change.
func TestSimRunnerGolden(t *testing.T) {
	var got []string
	for _, kind := range scenario.Kinds() {
		for _, seed := range goldenSeeds {
			sc, err := scenario.Generate(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			conv, err := sc.Instance.ToAlgebra()
			if err != nil {
				t.Fatalf("%s seed %d: ToAlgebra: %v", kind, seed, err)
			}
			for _, o := range goldenOptions {
				rep, err := engine.SimRunner{}.Run(context.Background(), conv, engine.RunOptions{
					Seed: seed, Horizon: 5 * time.Second, Plan: sc.Plan,
					BatchInterval: o.batch, StartStagger: o.stagger,
				})
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", kind, seed, o.name, err)
				}
				blob, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(blob)
				got = append(got, fmt.Sprintf("%s seed=%d opts=%s %s", kind, seed, o.name, hex.EncodeToString(sum[:])))
			}
		}
	}
	path := filepath.Join("testdata", simGoldenFile)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d cases, the run produced %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("report digest drifted:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
