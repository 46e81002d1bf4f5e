// Package bench is the repo's reproducible performance harness. It runs a
// fixed matrix of end-to-end simulations (FFT sizes and a corner turn,
// traced and untraced, faulted and clean), a 1024-node wide-topology pair
// priced both by the discrete-event simulator and by the analytical twin,
// a 1024-node Mercury pair run sequentially and on the sharded kernel,
// a mixed-class streaming case on the stream runtime, plus a
// kernel-scheduling microbenchmark, and reports both host-dependent measurements (wall time,
// events/sec, allocations) and deterministic outputs (virtual elapsed time,
// kernel dispatches) that must be identical on every machine and every run.
//
// `sage-bench -benchjson BENCH_<n>.json` emits the report; committed
// BENCH_*.json files seed the repo's performance trajectory, so later PRs
// can demonstrate speedups against a recorded baseline. The deterministic
// fields double as a regression gate: if two runs (or two hosts, or two
// commits that claim pure optimisation) disagree on virtual_ns or
// dispatches, simulated behaviour changed.
package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/twin"
)

// Schema identifies the report format; bump when fields change meaning.
const Schema = "sage-bench/1"

// faultPlanText is the canonical fault plan for faulted matrix cases:
// a light uniform drop rate plus one node stall, which together exercise
// retry, timeout and degraded-mode re-sequencing paths.
const faultPlanText = `seed 9
drop link=* rate=0.1
stall node=1 at=200us for=500us
`

// Case is one cell of the benchmark matrix.
type Case struct {
	Name       string
	App        experiments.AppKind // empty for micro cases
	N          int                 // matrix size (side length)
	Nodes      int
	Iterations int
	Traced     bool
	Faulted    bool
	// Threads overrides the per-function worker-thread count. Zero means
	// threads = Nodes (the classic matrix); nonzero selects the wide-topology
	// staggered mapping, for node counts beyond the 128-thread runtime cap.
	Threads int
	// Twin prices the case with the closed-form analytical twin instead of
	// running the discrete-event simulator. VirtualNS is then the predicted
	// elapsed time and Dispatches is zero (no events exist to dispatch).
	Twin bool
	// Events selects the kernel-scheduling microbenchmark (App empty):
	// a chain of that many self-rescheduled timer events.
	Events int
	// Stream runs the case on the streaming runtime instead of the batch
	// one: a fixed mixed-class arrival mix offering Iterations frames in
	// total. VirtualNS is then the streaming run's elapsed virtual time.
	Stream bool
	// Platform names the target platform from the registry. Empty means
	// CSPI, the classic matrix target — committed reports written before
	// the field existed replay unchanged.
	Platform string
	// Shards runs the simulation on the sharded kernel (sagert's
	// Options.Shards): up to that many host cores cooperate on this one run.
	// The deterministic columns are byte-identical at any shard count; only
	// wall-clock measurements may move. Zero or one means sequential.
	Shards int
	// Exec runs the case as a real program instead of a simulation: the
	// tables are lowered into the generated goroutines-and-channels runtime
	// (internal/codegen) and executed on actual data. WallNS is then real
	// compute time and OutputHash fingerprints the bitwise output; no
	// virtual time or dispatches exist.
	Exec bool
}

// CaseResult is one executed cell. Fields under "deterministic" depend only
// on the simulated behaviour; the rest measure the host.
type CaseResult struct {
	Name       string `json:"name"`
	App        string `json:"app,omitempty"`
	N          int    `json:"n,omitempty"`
	Nodes      int    `json:"nodes,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Traced     bool   `json:"traced"`
	Faulted    bool   `json:"faulted"`
	Threads    int    `json:"threads,omitempty"`
	// Platform is the registry platform the case ran on; empty means CSPI
	// (reports written before the field existed carry no platform key).
	Platform string `json:"platform,omitempty"`
	// Shards is the shard count the simulation ran with; zero means the
	// sequential kernel. Sharding never moves a deterministic column — a
	// sharded case and its sequential twin must agree on virtual_ns and
	// dispatches exactly.
	Shards int `json:"shards,omitempty"`
	// Kind is "twin" for analytically-priced cases, empty for simulated and
	// micro cases. Twin cases carry VirtualNS (the prediction) but no
	// dispatches or event rate: nothing was simulated.
	Kind string `json:"kind,omitempty"`

	// Deterministic: identical across hosts, runs and pool widths.
	VirtualNS  int64  `json:"virtual_ns"`
	Dispatches uint64 `json:"dispatches"`

	// OutputHash is the SHA-256 of the canonical sink-output text for exec
	// cases: deterministic across hosts and runs (the generated program is
	// bitwise reproducible), so it joins the fingerprint as a regression
	// gate on the computed data itself.
	OutputHash string `json:"output_hash,omitempty"`

	// Host-dependent measurements.
	WallNS         int64   `json:"wall_ns"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
}

// Report is the full harness output.
type Report struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Cases      []CaseResult `json:"cases"`
	// Summary aggregates host measurements across the event-driven cases,
	// computed with the shared stats estimators (internal/stats — the same
	// code the streaming SLO reports use). Host-dependent, like the fields
	// it summarises; absent from reports written before the field existed.
	Summary *Summary `json:"summary,omitempty"`
}

// Summary is the cross-case host-measurement roll-up.
type Summary struct {
	Cases            int     `json:"cases"`
	WallNSTotal      int64   `json:"wall_ns_total"`
	EventsPerSecMean float64 `json:"events_per_sec_mean"`
	EventsPerSecP50  float64 `json:"events_per_sec_p50"`
	EventsPerSecMin  float64 `json:"events_per_sec_min"`
	EventsPerSecMax  float64 `json:"events_per_sec_max"`
	AllocsPerEvtMean float64 `json:"allocs_per_event_mean"`
}

// Summarize computes the host-measurement roll-up over every case that
// dispatched events (twin cases price without simulating and are skipped).
func Summarize(r *Report) *Summary {
	var w, aw stats.Welford
	var rates []float64
	var total int64
	for _, c := range r.Cases {
		if c.Dispatches == 0 {
			continue
		}
		w.Add(c.EventsPerSec)
		aw.Add(c.AllocsPerEvent)
		rates = append(rates, c.EventsPerSec)
		total += c.WallNS
	}
	if len(rates) == 0 {
		return nil
	}
	min, max := rates[0], rates[0]
	for _, v := range rates[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return &Summary{
		Cases:            len(rates),
		WallNSTotal:      total,
		EventsPerSecMean: w.Mean(),
		EventsPerSecP50:  stats.Percentile(rates, 0.50),
		EventsPerSecMin:  min,
		EventsPerSecMax:  max,
		AllocsPerEvtMean: aw.Mean(),
	}
}

// Matrix returns the fixed protocol matrix. The full matrix is the
// committed-baseline protocol (FFT 256/512/1024 + corner turn, each traced
// and untraced, faulted and clean, on 8 nodes), plus a 1024-node
// wide-topology pair pricing the same tables with the DES and with the
// analytical twin — the committed speedup evidence for estimate-before-run
// workflows — plus a 1024-node Mercury pair running the same simulation
// sequentially and on 8 shards, the committed evidence that sharding moves
// wall clock and nothing else. Quick shrinks sizes for CI smoke runs
// without changing the matrix shape (the XL pairs keep their 1024 nodes;
// only the problem size drops).
func Matrix(quick bool) []Case {
	type appCell struct {
		app experiments.AppKind
		n   int
	}
	apps := []appCell{
		{experiments.AppFFT2D, 256},
		{experiments.AppFFT2D, 512},
		{experiments.AppFFT2D, 1024},
		{experiments.AppCornerTurn, 512},
	}
	nodes, iters, events := 8, 5, 2_000_000
	if quick {
		apps = []appCell{
			{experiments.AppFFT2D, 64},
			{experiments.AppFFT2D, 128},
			{experiments.AppCornerTurn, 64},
		}
		nodes, iters, events = 4, 3, 200_000
	}
	var cases []Case
	for _, a := range apps {
		short := "fft"
		if a.app == experiments.AppCornerTurn {
			short = "ct"
		}
		for _, faulted := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%s%d", short, a.n)
				if faulted {
					name += ".faulted"
				} else {
					name += ".clean"
				}
				if traced {
					name += ".traced"
				}
				cases = append(cases, Case{
					Name: name, App: a.app, N: a.n, Nodes: nodes,
					Iterations: iters, Traced: traced, Faulted: faulted,
				})
			}
		}
	}
	// Wide-topology pair: identical tables on 1024 nodes, priced once by the
	// DES and once by the twin. Per-function threads stay under the runtime's
	// 128-thread cap; the staggered mapping spreads the pipeline stages into
	// distinct node bands so the topology is genuinely wide.
	xlN, xlThreads, xlNodes, xlIters := 1024, 128, 1024, 5
	if quick {
		xlN, xlThreads, xlIters = 256, 64, 3
	}
	for _, twin := range []bool{false, true} {
		kind := "des"
		if twin {
			kind = "twin"
		}
		cases = append(cases, Case{
			Name: fmt.Sprintf("fft%d.xl%d.%s", xlN, xlNodes, kind),
			App:  experiments.AppFFT2D, N: xlN, Threads: xlThreads, Nodes: xlNodes,
			Iterations: xlIters, Twin: twin,
		})
	}
	// Sharded pair: the same wide workload on Mercury — a crossbar platform
	// with per-node fabric resources, so the conservative sharder can split
	// it — run once sequentially and once on 8 shards. The deterministic
	// columns must match exactly (sharding is byte-identical by contract);
	// the wall-clock delta is the multi-core speedup evidence on hosts with
	// GOMAXPROCS >= 8.
	for _, shards := range []int{1, 8} {
		name := fmt.Sprintf("fft%d.xlm%d.des", xlN, xlNodes)
		if shards > 1 {
			name += fmt.Sprintf(".s%d", shards)
		}
		cases = append(cases, Case{
			Name: name, App: experiments.AppFFT2D, N: xlN, Threads: xlThreads,
			Nodes: xlNodes, Iterations: xlIters, Platform: "Mercury", Shards: shards,
		})
	}
	// Streaming case: a mixed-class arrival mix on the stream runtime — the
	// acceptance number for streaming-path optimisations.
	strN, strFrames := 128, 120
	if quick {
		strN, strFrames = 64, 30
	}
	cases = append(cases, Case{
		Name: fmt.Sprintf("stream%d.mixed", strN),
		App:  experiments.AppFFT2D, N: strN, Nodes: nodes,
		Iterations: strFrames, Stream: true,
	})
	// Real-execution case: the same generated tables lowered to actual
	// goroutines and channels and run on real data — the acceptance number
	// for emitted-code and funclib-kernel optimisations, with the output
	// hash gating bitwise reproducibility.
	execN := 256
	if quick {
		execN = 64
	}
	cases = append(cases, Case{
		Name: fmt.Sprintf("fft%d.exec", execN),
		App:  experiments.AppFFT2D, N: execN, Nodes: nodes,
		Iterations: iters, Exec: true,
	})
	cases = append(cases, Case{Name: "kernel.schedule", Events: events})
	return cases
}

// Run executes the cases in order and assembles the report. Progress lines
// go to log (nil silences them). Cases run sequentially so wall-time and
// allocation measurements are not polluted by sibling cases.
func Run(cases []Case, log io.Writer) (*Report, error) {
	r := &Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, c := range cases {
		var (
			res CaseResult
			err error
		)
		switch {
		case c.App == "":
			res, err = runMicro(c)
		case c.Twin:
			res, err = runTwin(c)
		case c.Stream:
			res, err = runStream(c)
		case c.Exec:
			res, err = runExec(c)
		default:
			res, err = runSim(c)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: case %s: %w", c.Name, err)
		}
		if log != nil {
			fmt.Fprintf(log, "bench %-22s %10.0f events/sec  %6.2f allocs/event  wall %v\n",
				res.Name, res.EventsPerSec, res.AllocsPerEvent, time.Duration(res.WallNS).Round(time.Millisecond))
		}
		r.Cases = append(r.Cases, res)
	}
	r.Summary = Summarize(r)
	return r, nil
}

// measure wraps fn with wall-clock and allocation accounting. GC runs first
// so a prior case's garbage is not attributed to this one.
func measure(fn func() error) (wallNS int64, allocs, bytes uint64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = fn()
	wallNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return wallNS, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

func finish(res *CaseResult, wallNS int64, allocs, bytes, dispatches uint64, virtual sim.Time) {
	res.VirtualNS = int64(virtual)
	res.Dispatches = dispatches
	res.WallNS = wallNS
	if wallNS > 0 {
		res.EventsPerSec = float64(dispatches) / (float64(wallNS) / 1e9)
	}
	if dispatches > 0 {
		res.AllocsPerEvent = float64(allocs) / float64(dispatches)
		res.BytesPerEvent = float64(bytes) / float64(dispatches)
	}
	res.Allocs = allocs
}

// casePlatform resolves the case's target platform; empty selects CSPI.
func casePlatform(c Case) (machine.Platform, error) {
	if c.Platform == "" {
		return platforms.CSPI(), nil
	}
	return platforms.ByName(c.Platform)
}

// caseTables builds the generated tables for a sim or twin case. Table
// generation happens outside measure() in both paths, so the DES and the
// twin are timed over exactly the same remaining work: pricing the tables.
func caseTables(c Case) (*gluegen.Output, error) {
	pl, err := casePlatform(c)
	if err != nil {
		return nil, err
	}
	if c.Threads > 0 {
		return experiments.GenerateTablesWide(c.App, pl, c.Nodes, c.Threads, c.N)
	}
	return experiments.GenerateTables(c.App, pl, c.Nodes, c.N)
}

func runSim(c Case) (CaseResult, error) {
	res := CaseResult{
		Name: c.Name, App: string(c.App), N: c.N, Nodes: c.Nodes,
		Iterations: c.Iterations, Traced: c.Traced, Faulted: c.Faulted,
		Threads: c.Threads, Platform: c.Platform, Shards: c.Shards,
	}
	pl, err := casePlatform(c)
	if err != nil {
		return res, err
	}
	out, err := caseTables(c)
	if err != nil {
		return res, err
	}
	opts := sagert.Options{Iterations: c.Iterations, Shards: c.Shards}
	if c.Shards > 1 {
		// Seed the shard partitioner with the twin's per-node busy forecast,
		// the same steering sage-run uses; partition choice is wall-clock-only.
		if w, werr := twin.ShardWeights(out.Tables, pl, twin.Options{Iterations: c.Iterations}); werr == nil {
			opts.ShardWeights = w
		}
	}
	if c.Faulted {
		plan, err := fault.ParsePlan(faultPlanText)
		if err != nil {
			return res, err
		}
		opts.Faults = plan
		opts.Resilience.Degraded = plan.HasStalls()
	}
	if c.Traced {
		opts.Collector = trace.New(c.Name)
	}
	var run *sagert.Result
	wallNS, allocs, bytes, err := measure(func() error {
		r, err := sagert.Run(out.Tables, pl, opts)
		run = r
		return err
	})
	if err != nil {
		return res, err
	}
	finish(&res, wallNS, allocs, bytes, run.Dispatches, run.Elapsed)
	return res, nil
}

// runTwin prices a case with the analytical twin. The evaluator — a
// compiled, reusable view of the tables, built once and then queried
// thousands of times by the GA fitness path and the serve estimate path —
// is constructed outside measure() next to table generation, so the
// measured region is one pricing query in both columns: sagert.Run for the
// DES case, Predict here. VirtualNS records the predicted elapsed time;
// Dispatches stays zero because no event was ever created.
func runTwin(c Case) (CaseResult, error) {
	res := CaseResult{
		Name: c.Name, App: string(c.App), N: c.N, Nodes: c.Nodes,
		Iterations: c.Iterations, Threads: c.Threads, Platform: c.Platform, Kind: "twin",
	}
	pl, err := casePlatform(c)
	if err != nil {
		return res, err
	}
	out, err := caseTables(c)
	if err != nil {
		return res, err
	}
	ev, err := twin.NewEvaluator(out.Tables, pl)
	if err != nil {
		return res, err
	}
	var pred *twin.Prediction
	wallNS, allocs, bytes, err := measure(func() error {
		pred = ev.Predict(twin.Options{Iterations: c.Iterations})
		return nil
	})
	if err != nil {
		return res, err
	}
	finish(&res, wallNS, allocs, bytes, 0, sim.Time(pred.Elapsed))
	return res, nil
}

// runStream measures the streaming runtime: a fixed 3:1 interactive/batch
// class mix offering Iterations frames in total. Like every other cell the
// deterministic outputs (virtual elapsed, dispatches) are host-independent.
func runStream(c Case) (CaseResult, error) {
	res := CaseResult{
		Name: c.Name, App: string(c.App), N: c.N, Nodes: c.Nodes,
		Iterations: c.Iterations, Kind: "stream",
	}
	interactive := (c.Iterations*3 + 3) / 4
	batch := c.Iterations - interactive
	sc := &stream.Scenario{
		App: "fft2d", N: c.N, Threads: 2, Nodes: c.Nodes, Seed: 7,
		Classes: []stream.Class{
			{Name: "interactive", Process: "poisson", Rate: 400, Frames: interactive, SLOMs: 50},
			{Name: "batch", Process: "gamma", Rate: 100, Shape: 4, Frames: batch, Weight: 2},
		},
	}
	cfg, err := sc.Build()
	if err != nil {
		return res, err
	}
	var run *stream.Result
	wallNS, allocs, bytes, err := measure(func() error {
		r, err := stream.Run(cfg)
		run = r
		return err
	})
	if err != nil {
		return res, err
	}
	finish(&res, wallNS, allocs, bytes, run.Dispatches, run.Elapsed)
	return res, nil
}

// runExec lowers the case's tables into the generated real-execution
// runtime and runs them on actual data: one goroutine per SAGE thread,
// buffered-channel lanes, function-library kernels on []complex128. Wall
// time is genuine host compute; the deterministic contribution is the
// SHA-256 of the canonical output text, which must be identical on every
// host and at every GOMAXPROCS.
func runExec(c Case) (CaseResult, error) {
	res := CaseResult{
		Name: c.Name, App: string(c.App), N: c.N, Nodes: c.Nodes,
		Iterations: c.Iterations, Threads: c.Threads, Platform: c.Platform, Kind: "exec",
	}
	out, err := caseTables(c)
	if err != nil {
		return res, err
	}
	prog, err := codegen.Plan(out.Tables, c.Iterations)
	if err != nil {
		return res, err
	}
	var run *rtl.Result
	wallNS, allocs, allocBytes, err := measure(func() error {
		r, err := rtl.Execute(prog)
		run = r
		return err
	})
	if err != nil {
		return res, err
	}
	var text bytes.Buffer
	if err := run.WriteText(&text); err != nil {
		return res, err
	}
	sum := sha256.Sum256(text.Bytes())
	finish(&res, wallNS, allocs, allocBytes, 0, 0)
	res.OutputHash = hex.EncodeToString(sum[:])
	return res, nil
}

// runMicro is the kernel-scheduling microbenchmark: a chain of Events
// self-rescheduled timer callbacks, the same loop as the package's
// BenchmarkKernelSchedule. It is the acceptance number for scheduling-path
// optimisations (events/sec up, allocs/event down).
func runMicro(c Case) (CaseResult, error) {
	res := CaseResult{Name: c.Name, Iterations: c.Events}
	var k *sim.Kernel
	wallNS, allocs, bytes, err := measure(func() error {
		k = sim.NewKernel()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < c.Events {
				k.After(time.Microsecond, tick)
			}
		}
		k.After(time.Microsecond, tick)
		return k.Run()
	})
	if err != nil {
		return res, err
	}
	finish(&res, wallNS, allocs, bytes, k.Dispatched(), k.Now())
	return res, nil
}

// WriteFile marshals the report (indented, trailing newline) to path.
func WriteFile(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and validates a report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := Validate(&r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Validate checks a report against the BENCH JSON schema: identity fields
// present, measurements internally consistent, no duplicate case names.
func Validate(r *Report) error {
	if r.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", r.Schema, Schema)
	}
	if r.GoVersion == "" {
		return fmt.Errorf("missing go_version")
	}
	if r.GOMAXPROCS < 1 {
		return fmt.Errorf("gomaxprocs %d", r.GOMAXPROCS)
	}
	if len(r.Cases) == 0 {
		return fmt.Errorf("no cases")
	}
	seen := map[string]bool{}
	for i, c := range r.Cases {
		if c.Name == "" {
			return fmt.Errorf("case %d: missing name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("case %q: duplicate name", c.Name)
		}
		seen[c.Name] = true
		if c.App != "" && (c.N <= 0 || c.Nodes <= 0 || c.Iterations <= 0) {
			return fmt.Errorf("case %q: incomplete sim identity (n=%d nodes=%d iterations=%d)", c.Name, c.N, c.Nodes, c.Iterations)
		}
		switch c.Kind {
		case "":
			if c.VirtualNS <= 0 || c.Dispatches == 0 {
				return fmt.Errorf("case %q: missing deterministic outputs (virtual_ns=%d dispatches=%d)", c.Name, c.VirtualNS, c.Dispatches)
			}
			if c.WallNS <= 0 || c.EventsPerSec <= 0 {
				return fmt.Errorf("case %q: missing measurements (wall_ns=%d events_per_sec=%g)", c.Name, c.WallNS, c.EventsPerSec)
			}
		case "stream":
			if c.VirtualNS <= 0 || c.Dispatches == 0 {
				return fmt.Errorf("case %q: missing deterministic outputs (virtual_ns=%d dispatches=%d)", c.Name, c.VirtualNS, c.Dispatches)
			}
			if c.WallNS <= 0 || c.EventsPerSec <= 0 {
				return fmt.Errorf("case %q: missing measurements (wall_ns=%d events_per_sec=%g)", c.Name, c.WallNS, c.EventsPerSec)
			}
		case "exec":
			// Real-execution cases run generated code on actual data: no
			// virtual time or dispatches exist, but the wall clock and the
			// output hash (the bitwise-reproducibility gate) must be present.
			if c.VirtualNS != 0 || c.Dispatches != 0 {
				return fmt.Errorf("case %q: exec case carries simulated outputs (virtual_ns=%d dispatches=%d)", c.Name, c.VirtualNS, c.Dispatches)
			}
			if c.WallNS <= 0 {
				return fmt.Errorf("case %q: missing measurement (wall_ns=%d)", c.Name, c.WallNS)
			}
			if len(c.OutputHash) != 64 {
				return fmt.Errorf("case %q: exec case output_hash %q is not a sha-256 hex digest", c.Name, c.OutputHash)
			}
		case "twin":
			// Analytical cases predict virtual time without simulating: the
			// prediction must be present, the measurement must exist, and no
			// events may have been dispatched (that would mean a simulation
			// leaked into the analytical path).
			if c.VirtualNS <= 0 {
				return fmt.Errorf("case %q: twin case missing prediction (virtual_ns=%d)", c.Name, c.VirtualNS)
			}
			if c.Dispatches != 0 || c.EventsPerSec != 0 {
				return fmt.Errorf("case %q: twin case dispatched events (dispatches=%d events_per_sec=%g)", c.Name, c.Dispatches, c.EventsPerSec)
			}
			if c.WallNS <= 0 {
				return fmt.Errorf("case %q: missing measurement (wall_ns=%d)", c.Name, c.WallNS)
			}
		default:
			return fmt.Errorf("case %q: unknown kind %q", c.Name, c.Kind)
		}
		if c.AllocsPerEvent < 0 || c.BytesPerEvent < 0 {
			return fmt.Errorf("case %q: negative allocation rate", c.Name)
		}
		// Shards/Platform arrived with sage-bench/1 reports already committed;
		// absent keys decode to zero values and stay valid. Only nonsense is
		// rejected.
		if c.Shards < 0 {
			return fmt.Errorf("case %q: negative shard count %d", c.Name, c.Shards)
		}
		if c.Shards > 1 && c.Kind != "" {
			return fmt.Errorf("case %q: only simulated cases shard (kind=%q shards=%d)", c.Name, c.Kind, c.Shards)
		}
	}
	return nil
}

// Fingerprint projects the deterministic fields into a newline-separated
// canonical form. Two runs of the same matrix on any hosts must produce
// identical fingerprints; CI diffs this as the determinism gate.
func (r *Report) Fingerprint() string {
	var out []byte
	for _, c := range r.Cases {
		out = fmt.Appendf(out, "%s virtual_ns=%d dispatches=%d", c.Name, c.VirtualNS, c.Dispatches)
		if c.OutputHash != "" {
			out = fmt.Appendf(out, " output=%s", c.OutputHash)
		}
		out = append(out, '\n')
	}
	return string(out)
}
