// Command perfbench is the repository's benchmark. It runs one named
// workload of the SAGE pipeline for a fixed time, checks every output, and
// prints its metrics as one JSON object on the last line of standard output:
//
//	perfbench --workload table1-1024 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 they are the per-layer ones: the run records spans
// around every call it makes into a layer and takes a CPU profile, which it
// splits by module. Layers are measured only from outside: the benchmark
// times its own calls into each module's public functions and reads counts
// from the results they return. README.md describes the workloads and
// metrics; run.sh builds and runs the command from a checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	sp       *spans // nil unless tracing
	outDir   string // where traced runs write spans and profiles
}

// report is what a workload measured.
type report struct {
	values    map[string]float64
	samples   map[string]sampleInfo
	attempted int
	failed    int
	problems  []string // failed output checks
}

// sampleInfo says what an end-to-end value stands on.
type sampleInfo struct {
	N          int     `json:"n"`
	Percentile float64 `json:"percentile,omitempty"`
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]sampleInfo{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setN records an end-to-end value with the sample count behind it.
func (r *report) setN(name string, v float64, n int, pct float64) {
	r.values[name] = v
	r.samples[name] = sampleInfo{N: n, Percentile: pct}
}

// check records a failed output check.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*config) (*report, error){
	"table1-1024":  runTable1,
	"wide-1024":    runWide,
	"exec-fft1024": runExec,
	"serve-mix":    runServeMix,
}

func main() { os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr)) }

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1-1024, wide-1024, exec-fft1024 or serve-mix")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "how long to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := &config{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traced == 1, outDir: filepath.Join(".bench_build", "traces"),
	}
	if cfg.trace {
		cfg.sp = newSpans(fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano()))
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.set("peak_rss_mb", peakRSSMB())
	rep.set("failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)))
	if cfg.trace {
		if path, err := cfg.sp.write(cfg.outDir); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
		} else {
			fmt.Fprintln(stderr, "perfbench: spans in", path)
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if err := emit(stdout, cfg, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(rep.problems) > 0 || rep.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints a detail line (host record, sample counts) and then the
// result line, which carries exactly the metrics of the selected kind.
func emit(w io.Writer, cfg *config, rep *report) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, d := range metricDefs {
		if d.endToEnd == cfg.trace {
			continue
		}
		v, ok := rep.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	detail := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(),
		"trace": cfg.trace, "host": hostRecord(), "samples": rep.samples,
		"checks_failed": rep.problems,
	}
	if cfg.sp != nil {
		detail["run_id"] = cfg.sp.RunID
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"detail": detail}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
}

// hostRecord is stored with every result: a number means little without
// the toolchain and the cores it was measured on.
func hostRecord() map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// goCounters snapshots the Go runtime counters the layer metrics use.
type goCounters struct {
	gcCycles        uint32
	totalAlloc      uint64
	gcCPU, totalCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGo() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return goCounters{
		gcCycles: ms.NumGC, totalAlloc: ms.TotalAlloc,
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
	}
}

// setGoLayer reports the Go runtime's share of a measured phase of ops
// operations.
func setGoLayer(r *report, before, after goCounters, ops int) {
	r.set("go.gc_cycles", float64(after.gcCycles-before.gcCycles))
	frac := 0.0
	if d := after.totalCPU - before.totalCPU; d > 0 {
		frac = (after.gcCPU - before.gcCPU) / d
	}
	r.set("go.gc_cpu_frac", frac)
	r.set("go.heap_alloc_mb", float64(after.totalAlloc-before.totalAlloc)/(1<<20)/float64(max(ops, 1)))
}
