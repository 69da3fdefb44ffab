package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"fsr/internal/spp"
)

// fingerprint hashes a workload's generated inputs. Two runs may only be
// compared when their fingerprints are equal: same name, same seed and
// same generator code give the same hash; any change to what the workload
// feeds the program changes it.
type fingerprint struct {
	h hash.Hash
	w *bufio.Writer
}

func newFingerprint(workload string) *fingerprint {
	h := sha256.New()
	f := &fingerprint{h: h, w: bufio.NewWriterSize(h, 1<<16)}
	f.str(workload)
	return f
}

func (f *fingerprint) str(s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	f.w.Write(n[:])
	f.w.WriteString(s)
}

func (f *fingerprint) int(v int64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(v))
	f.w.Write(n[:])
}

func (f *fingerprint) bytes(b []byte) { f.str(string(b)) }

// instance hashes an SPP instance field by field in its stored order, so
// it is cheap on 50 000-node instances (no JSON rendering).
func (f *fingerprint) instance(in *spp.Instance) {
	f.str(in.Name)
	f.int(int64(len(in.Nodes)))
	for _, n := range in.Nodes {
		f.str(string(n))
	}
	f.int(int64(len(in.Origins)))
	for _, o := range in.Origins {
		f.str(string(o))
	}
	f.int(int64(len(in.Links)))
	for _, l := range in.Links {
		f.str(string(l.From))
		f.str(string(l.To))
		f.int(int64(in.Cost[l]))
	}
	for _, n := range in.Nodes {
		paths := in.Permitted[n]
		f.int(int64(len(paths)))
		for _, p := range paths {
			f.int(int64(len(p)))
			for _, h := range p {
				f.str(string(h))
			}
		}
	}
}

func (f *fingerprint) sum() string {
	f.w.Flush()
	return hex.EncodeToString(f.h.Sum(nil)[:16])
}

// machine records where a run happened. Results from different machines
// are kept apart by whoever compares them.
type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Source is a hash of the Go sources and module files of the tree
	// under test: the commit, for checkouts that carry no git metadata.
	Source string `json:"source_sha256"`
}

func currentMachine(root string) machine {
	return machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Source:     sourceHash(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes every .go, go.mod and go.sum file under root, skipping
// build output and VCS metadata.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// record is everything one run measured, kept beside the one-line result:
// the per-run samples rather than only their summary, the inputs'
// fingerprint and the machine.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Fingerprint string             `json:"fingerprint"`
	Machine     machine            `json:"machine"`
	TailPM      int                `json:"tail_permille"`
	Result      result             `json:"result"`
	SetupS      []float64          `json:"setup_s_samples,omitempty"`
	LatencyMS   []float64          `json:"latency_ms_samples,omitempty"`
	Exact       map[string]float64 `json:"exact_counts,omitempty"`
	Problems    []string           `json:"problems,omitempty"`
}

func writeRecord(dir string, rec *record) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", rec.Workload, rec.Seed, b2i(rec.Trace), rec.Fingerprint[:12])
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compareMain implements "e2ebench compare OLD.json NEW.json": it prints
// each metric of two records side by side and refuses (exit 2) to compare
// records whose workload fingerprints differ, since those measured
// different inputs under the same name.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench compare: %s: %v\n", p, err)
			return 2
		}
	}
	if err := comparable(recs[0], recs[1]); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench compare: %v\n", err)
		return 2
	}
	names := make([]string, 0, len(recs[0].Result.Metrics))
	for n := range recs[0].Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := recs[0].Result.Metrics[n]
		b, ok := recs[1].Result.Metrics[n]
		if !ok {
			fmt.Printf("%-40s %14.4f %14s %s\n", n, a.Value, "-", a.Unit)
			continue
		}
		fmt.Printf("%-40s %14.4f %14.4f %s\n", n, a.Value, b.Value, a.Unit)
	}
	return 0
}

// comparable refuses pairs of records that did not measure the same
// workload on the same inputs in the same mode.
func comparable(a, b record) error {
	switch {
	case a.Workload != b.Workload:
		return fmt.Errorf("workloads differ: %s vs %s", a.Workload, b.Workload)
	case a.Fingerprint != b.Fingerprint:
		return fmt.Errorf("%s: input fingerprints differ (%s vs %s): the runs measured different inputs", a.Workload, a.Fingerprint, b.Fingerprint)
	case a.Trace != b.Trace:
		return fmt.Errorf("%s: one record is traced, the other is not", a.Workload)
	}
	return nil
}
