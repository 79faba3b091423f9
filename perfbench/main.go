// Command perfbench is the repository's end-to-end benchmark. It runs one of
// four closed-loop workloads — paper-grid, scale-steady, load-contention and
// live-cluster — for a time budget, checks every operation's output, and
// prints the end-to-end metrics (untraced) or the per-layer ledger (traced)
// as one JSON object on the last line of standard output. Each layer is
// measured from outside, by timing calls into its public functions; see
// README.md in this directory for every metric and workload.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload scale-steady --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// The default seed is the one the benchmark is tuned and checked on; the
// held-out seed is never used while changing it, and every check must pass on
// both.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// env is what a workload gets: its inputs' seed, its time budget, and — in a
// traced run — the span tracer (nil when untraced).
type env struct {
	seed    int64
	budget  time.Duration
	tr      *tracer
	scratch string // private directory under the build dir, removed at exit
}

func (e *env) traced() bool { return e.tr != nil }

// untraced returns e without its tracer, for the untraced phase of a run.
func (e *env) untraced() *env {
	u := *e
	u.tr = nil
	return &u
}

// report is a workload's outcome: operations attempted and failed, and the
// metrics it measured, by name. Per-layer metrics a workload does not reach
// are left out and reported as 0.
type report struct {
	attempted, failed int
	endToEnd          map[string]float64
	layer             map[string]float64
}

func newReport() *report {
	return &report{endToEnd: map[string]float64{}, layer: map[string]float64{}}
}

type workload struct {
	name string
	run  func(e *env) (*report, error)
}

var workloads = []workload{
	{"paper-grid", runPaperGrid},
	{"scale-steady", runScaleSteady},
	{"load-contention", runLoadContention},
	{"live-cluster", runLiveCluster},
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, perLayer those of a traced
// run; both match BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"regen_s", "s"},
	{"bcast_ms_p50", "ms"},
	{"sessions_per_s", "1/s"},
	{"wave_ms_p50", "ms"},
	{"wave_ms_p90", "ms"},
	{"fwd_ratio", "ratio"},
	{"delivery_pct", "%"},
	{"latency_p99_slots", "slots"},
}

var perLayer = []metricDef{
	{"geo.generate_ms", "ms"},
	{"geo.calls", "count"},
	{"view.build_us", "us"},
	{"view.members_mean", "count"},
	{"core.covered_us", "us"},
	{"core.covered_true_pct", "%"},
	{"protocol.self_s", "s"},
	{"protocol.calls", "count"},
	{"sim.engine_self_s", "s"},
	{"sim.ns_per_receipt", "ns"},
	{"sim.receipts", "count"},
	{"sim.copies", "count"},
	{"sim.runtime_calls", "count"},
	{"sim.precompute_speedup", "x"},
	{"mac.deferrals", "count"},
	{"mac.queue_drops", "count"},
	{"mac.collided", "count"},
	{"mac.useful_ratio", "ratio"},
	{"nack.requests", "count"},
	{"nack.retransmits", "count"},
	{"traffic.plan_ms", "ms"},
	{"traffic.sessions", "count"},
	{"stats.replicates", "count"},
	{"stats.ms_per_replicate", "ms"},
	{"experiments.points", "count"},
	{"experiments.point_s_p50", "s"},
	{"experiments.point_s_max", "s"},
	{"grid.warm_s", "s"},
	{"grid.verify_s", "s"},
	{"grid.cache_bytes", "B"},
	{"runtime.new_s", "s"},
	{"runtime.lag_ms_p50", "ms"},
	{"runtime.protocol_self_ms", "ms"},
	{"runtime.copies", "count"},
	{"runtime.nacks", "count"},
	{"runtime.retransmits", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_pct", "%"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies what produced a run's numbers.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: paper-grid, scale-steady, load-contention or live-cluster")
	seed := fl.Int64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := fl.Int("seconds", 20, "measured time budget per run")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fl.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(stderr, "perfbench: GOMAXPROCS=%d exceeds the %d available CPUs; refusing to run\n", procs, cpus)
		return 2
	}
	prov := provenance{
		Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
	}
	digest, err := sourceDigest(".")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	prov.SourceSHA256 = digest

	buildDir := os.Getenv("CARGO_TARGET_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, scratch: scratch}
	if *trace == 1 {
		e.tr = newTracer()
	}
	rep, err := wl.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if e.traced() {
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
		if err := e.tr.write(path, prov); err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
			return 1
		}
	}
	res, err := assemble(rep, e.traced())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]provenance{"provenance": prov})
	_ = enc.Encode(res)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// assemble turns a report into the result line: every end-to-end metric (a
// missing or non-positive one is a benchmark bug), or every per-layer metric
// with unreached layers at 0.
func assemble(rep *report, traced bool) (result, error) {
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	defs, vals := endToEnd, rep.endToEnd
	if traced {
		defs, vals = perLayer, rep.layer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !traced && (!ok || !(v > 0)) {
			return res, fmt.Errorf("end-to-end metric %s not measured (%v)", d.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for k := range vals {
		if _, ok := res.Metrics[k]; !ok {
			return res, fmt.Errorf("metric %s is not declared", k)
		}
	}
	return res, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and go.mod file under root (skipping
// dot directories), so a run names the code it measured even where the
// checkout carries no VCS metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
