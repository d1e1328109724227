// Command layerbench is the repository's benchmark: one command that
// runs a named workload against the public entry points of paths, core,
// cone, stream, warehouse, apiserver and trace, checks the outputs, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. BENCHMARK.json at the repository root lists the
// workloads, the metrics and their regression bounds.
//
// Usage, from the repository root (run.sh builds this command and
// asrankd from source first):
//
//	bash layerbench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - batch: repeated offline passes paths.Sanitize → core.InferCtx →
//     warehouse.FromResult → apiserver.BuildSnapshot over a 4000-AS,
//     24-VP corpus (about 199k paths).
//   - stream: the live loop of asrankd without the network on a
//     2000-AS, 12-VP table: Announce/Withdraw → CommitEpoch →
//     BuildSnapshot → Store.AppendNote, for at least 100 epochs of 1%
//     stationary churn (churn.go).
//   - serve: plain asrankd serving a 2000-AS warehouse of 12 epochs,
//     driven closed-loop over two connections with asbench's weighted
//     route mix, half the requests revalidating with If-None-Match.
//     The traced run also prices observed mode (-debug-listen: tracer,
//     flight recorder, exemplars) against plain mode in alternating
//     segments on the same warehouse.
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// no tracing at all. With --trace 1 it reports the per-layer metrics:
// units of work alternate between traced and untraced, the traced ones
// record benchmark-owned spans around every public call (plus the
// program's own core.infer.* spans, switched on by a trace.Tracer in
// the context), and the run writes those spans as Chrome trace JSON to
// .bench_run/<workload>.trace.json. Every run writes its host and
// configuration record with the result to .bench_run.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Load shape, fixed so numbers from different hosts stay comparable:
// never a GOMAXPROCS default. procs is GOMAXPROCS for the benchmark and
// for asrankd alike.
const (
	procs             = 2
	engineWorkers     = 2 // worker pools inside the system under test
	clientWorkers     = 2 // goroutines driving the system
	clientConnections = 2 // serve: one HTTP connection per client worker
	setupReps         = 3 // set-ups per run; setup_s is their median
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	asrankd  string // asrankd binary, for the serve workload
	runDir   string // working files and results, inside the checkout
	runID    string
}

func (c config) measure() time.Duration { return time.Duration(c.seconds) * time.Second }

type workloadFunc func(ctx context.Context, cfg config, rec *recorder) (*result, error)

var workloads = map[string]workloadFunc{
	"batch":  runBatch,
	"stream": runStream,
	"serve":  runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: batch, stream or serve")
	seed := fl.Int64("seed", 1, "seed every input is generated from")
	seconds := fl.Int("seconds", 10, "length of the measured phase")
	traceFlag := fl.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	asrankd := fl.String("asrankd", "", "asrankd binary (serve workload)")
	runDir := fl.String("rundir", ".bench_run", "directory for working data, traces and result records")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "layerbench: want --workload batch|stream|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*runDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "layerbench: %v\n", err)
		return 1
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		asrankd: *asrankd, runDir: *runDir,
		runID: fmt.Sprintf("%s-s%d-t%d-%d", *workload, *seed, *traceFlag, time.Now().UnixNano()),
	}
	runtime.GOMAXPROCS(procs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var rec *recorder
	if cfg.traced {
		rec = newRecorder(cfg.runID)
	}
	res, err := wl(ctx, cfg, rec)
	if err != nil {
		fmt.Fprintf(stderr, "layerbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs, positive := endToEnd, true
	if cfg.traced {
		defs, positive = perLayer, false
		tracePath := filepath.Join(cfg.runDir, cfg.workload+".trace.json")
		if err := rec.writeChrome(tracePath); err != nil {
			res.check("trace_chrome", false, "%v", err)
		} else {
			res.check("trace_chrome", true, "%d spans in %s pass trace.CheckChrome", len(rec.all()), tracePath)
		}
	}
	sum, err := res.summarize(defs, positive)
	if err != nil {
		fmt.Fprintf(stderr, "layerbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	host := newHostRecord(cfg)
	fmt.Fprintf(stdout, "layerbench %s seed %d trace %v on %s (%d CPUs, GOMAXPROCS %d, %s), source %s\n",
		cfg.workload, cfg.seed, cfg.traced, host.CPUModel, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Source)
	res.writeHuman(stdout, defs)
	if err := writeRecord(cfg, host, res, sum); err != nil {
		fmt.Fprintf(stderr, "layerbench: %v\n", err)
		return 1
	}
	if err := writeSummary(stdout, sum); err != nil {
		fmt.Fprintf(stderr, "layerbench: %v\n", err)
		return 1
	}
	if !sum.Correct || sum.Failed > 0 {
		return 1
	}
	return 0
}

// hostRecord is the host and configuration every result carries.
type hostRecord struct {
	RunID             string `json:"run_id"`
	Workload          string `json:"workload"`
	Seed              int64  `json:"seed"`
	Seconds           int    `json:"seconds"`
	Traced            bool   `json:"traced"`
	CPUModel          string `json:"cpu_model"`
	NProc             int    `json:"nproc"`
	GOMAXPROCS        int    `json:"gomaxprocs"`
	GoVersion         string `json:"go_version"`
	Source            string `json:"source"`
	EngineWorkers     int    `json:"engine_workers"`
	ClientWorkers     int    `json:"client_workers"`
	ClientConnections int    `json:"client_connections"`
	SetupReps         int    `json:"setup_reps"`
}

func newHostRecord(cfg config) hostRecord {
	return hostRecord{
		RunID: cfg.runID, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Source: sourceHash("."),
		EngineWorkers: engineWorkers, ClientWorkers: clientWorkers, ClientConnections: clientConnections,
		SetupReps: setupReps,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash identifies the code under test. A benchmark checkout need
// not be a git repository, so instead of a commit ID it is the SHA-256
// over the path and content of every Go source and module file below
// root, skipping dot-directories (build and run output).
func sourceHash(root string) string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(raw))
		h.Write(raw)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// writeRecord leaves the run's full record — host, configuration,
// checks, notes and the summary line — next to its trace.
func writeRecord(cfg config, host hostRecord, res *result, sum summary) error {
	type checkOut struct {
		Name   string `json:"name"`
		OK     bool   `json:"ok"`
		Detail string `json:"detail"`
	}
	rec := struct {
		Host   hostRecord `json:"host"`
		Result summary    `json:"result"`
		Checks []checkOut `json:"checks"`
		Notes  []string   `json:"notes"`
	}{Host: host, Result: sum, Notes: res.notes}
	for _, c := range res.checks {
		rec.Checks = append(rec.Checks, checkOut{c.name, c.ok, c.detail})
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	mode := "trace0"
	if cfg.traced {
		mode = "trace1"
	}
	return os.WriteFile(filepath.Join(cfg.runDir, cfg.workload+"-"+mode+".result.json"), append(raw, '\n'), 0o644)
}

// heapMB forces a collection and returns the live Go heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
