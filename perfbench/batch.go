package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/codegen"
	"repro/internal/codegen/rtl"
	"repro/internal/experiments"
	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/handcoded"
	"repro/internal/isspl"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/twin"
)

// batch is a workload made of units of work run back to back: a closed loop
// with one client. Each unit is an "operation" for the end-to-end metrics.
type batch struct {
	setups int                               // set-up passes before the first operation
	perOp  int                               // set-up passes after each measured operation
	setup  func(parent int) error            // spec to runnable artefact
	warm   func() error                      // untimed, after the last set-up
	op     func(parent int) (float64, error) // one unit of work; returns its seconds
	limit  time.Duration                     // latency limit for goodput_rps
	traced func() error                      // after the traced phases only
}

// runBatch drives a batch workload: set-up, warm-up, then the measured
// phase. Untraced, that is one phase of cfg.seconds and the end-to-end
// metrics. Traced, it is an untraced half and a traced half (spans and a CPU
// profile), whose ratio is the tracing overhead.
func runBatch(cfg *config, r *report, b batch) error {
	sp := cfg.sp
	var setupSecs []float64
	setups := func(k int) error {
		for i := 0; i < k; i++ {
			p := sp.begin("setup", -1)
			t := time.Now()
			err := b.setup(p)
			setupSecs = append(setupSecs, time.Since(t).Seconds())
			sp.end(p)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		return nil
	}
	// Set-up passes are spread over the whole run, between operations, so
	// their median does not hang on the host's state in the first second.
	defer func() { r.setN("setup_s", median(setupSecs), len(setupSecs), 50) }()
	if err := setups(b.setups); err != nil {
		return err
	}
	// Traced runs report no setup_s and profile only the operations.
	between := func() error { return setups(b.perOp) }
	if cfg.trace {
		between = func() error { return nil }
	}
	if b.warm != nil {
		if err := b.warm(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if !cfg.trace {
		secs, err := loop(r, cfg.seconds, b.op, nil, between)
		if err != nil {
			return err
		}
		setClosedLoop(r, secs, b.limit)
		return nil
	}
	plain, err := loop(r, cfg.seconds/2, b.op, nil, between)
	if err != nil {
		return err
	}
	g0 := readGo()
	var traced []float64
	err = profile(cfg, r, func() error {
		var err error
		traced, err = loop(r, cfg.seconds/2, b.op, sp, between)
		return err
	})
	if err != nil {
		return err
	}
	setGoLayer(r, g0, readGo(), len(traced))
	r.set("trace.overhead_frac", median(traced)/median(plain)-1)
	if b.traced != nil {
		return b.traced()
	}
	return nil
}

// loop runs op back to back for about d, never starting an operation the
// median so far says would end past d, and always at least once. Each op
// times its own unit of work, so its output checks stay out of the sample.
// A collection before every operation keeps one operation's garbage from
// being collected inside the next one, or inside the set-up passes between
// them. A failed operation ends the loop and is counted.
func loop(r *report, d time.Duration, op func(parent int) (float64, error), sp *spans, between func() error) ([]float64, error) {
	var secs []float64
	start := time.Now()
	runtime.GC()
	for {
		r.attempted++
		p := sp.begin("op", -1)
		sec, err := op(p)
		sp.end(p)
		if err != nil {
			r.failed++
			r.problems = append(r.problems, err.Error())
			return secs, nil
		}
		secs = append(secs, sec)
		runtime.GC()
		if err := between(); err != nil {
			return secs, err
		}
		if time.Since(start).Seconds()+median(secs) > d.Seconds() {
			return secs, nil
		}
	}
}

// setClosedLoop reports a closed loop's end-to-end metrics. With one client
// an operation is due when the previous one ends, so its latency is its run
// time, and the rate it sustains is operations per second of run time.
func setClosedLoop(r *report, secs []float64, limit time.Duration) {
	n := len(secs)
	if n == 0 {
		return
	}
	var total float64
	good := 0
	for _, s := range secs {
		total += s
		if s <= limit.Seconds() {
			good++
		}
	}
	r.setN("run_s", median(secs), n, 50)
	r.setN("req_p50_ms", 1000*median(secs), n, 50)
	v, p, _ := tail(secs)
	r.setN("req_p99_ms", 1000*v, n, p)
	r.setN("goodput_rps", float64(good)/total, n, 0)
	rate := float64(n) / total
	if v > limit.Seconds() {
		rate *= limit.Seconds() / v
	}
	r.setN("max_rps_at_slo", rate, n, p)
}

// profile runs fn under a CPU profile, splits the profile by layer into the
// cpu.* metrics and keeps the profile next to the spans.
func profile(cfg *config, r *report, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	for b, v := range cpuSplit(samples) {
		r.set("cpu."+b, v)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err == nil {
		_ = os.WriteFile(filepath.Join(cfg.outDir, cfg.sp.RunID+".pprof"), buf.Bytes(), 0o644) // kept for inspection only
	}
	return nil
}

// buildTables is the spec-to-tables path of the paper's pipeline with each
// step timed as a span: build the model, map it onto nodes, then
// gluegen.Generate.
func buildTables(sp *spans, parent int, build func() (*model.App, error), mapOn func(*model.App, int) (*model.Mapping, error), pl machine.Platform, nodes int) (*gluegen.Tables, error) {
	var app *model.App
	if err := sp.call("model.build", parent, func() error {
		var err error
		app, err = build()
		return err
	}); err != nil {
		return nil, err
	}
	var m *model.Mapping
	if err := sp.call("model.map", parent, func() error {
		var err error
		m, err = mapOn(app, nodes)
		return err
	}); err != nil {
		return nil, err
	}
	var out *gluegen.Output
	if err := sp.call("gluegen.generate", parent, func() error {
		var err error
		out, err = gluegen.Generate(gluegen.Input{App: app, Mapping: m, Platform: pl, NumNodes: nodes})
		return err
	}); err != nil {
		return nil, err
	}
	return out.Tables, nil
}

// seededApp builds a benchmark application with experiments.BuildApp and
// makes the run's seed the source function's seed, so --seed chooses the
// input samples.
func seededApp(kind experiments.AppKind, n, threads int, seed int64) func() (*model.App, error) {
	return func() (*model.App, error) {
		app, err := experiments.BuildApp(kind, n, threads)
		if err == nil {
			app.Function("source").Params["seed"] = int(seed)
		}
		return app, err
	}
}

// tableThreads counts the SAGE threads the tables run.
func tableThreads(t *gluegen.Tables) int {
	n := 0
	for _, f := range t.Functions {
		n += f.Threads
	}
	return n
}

// sagertAcc accumulates what sagert.Run calls returned and cost.
type sagertAcc struct {
	runs                   int
	wall                   float64
	dispatches             uint64
	allocBytes, mallocs    uint64
	compute, copies, comms float64 // summed node busy time, ms of virtual time
}

// run calls sagert.Run as a span, accumulates its result and returns it
// with the call's wall seconds.
func (a *sagertAcc) run(sp *spans, parent int, t *gluegen.Tables, pl machine.Platform, o sagert.Options) (*sagert.Result, float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *sagert.Result
	start := time.Now()
	err := sp.call("sagert.run", parent, func() error {
		var err error
		res, err = sagert.Run(t, pl, o)
		return err
	})
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, err
	}
	a.runs++
	a.wall += wall
	a.dispatches += res.Dispatches
	a.allocBytes += after.TotalAlloc - before.TotalAlloc
	a.mallocs += after.Mallocs - before.Mallocs
	for _, ns := range res.NodeStats {
		a.compute += ms(ns.ComputeBusy)
		a.copies += ms(ns.CopyBusy)
		a.comms += ms(ns.CommBusy)
	}
	return res, wall, nil
}

// report sets the sagert.* layer metrics, per sagert.Run call.
func (a *sagertAcc) report(r *report) {
	if a.runs == 0 {
		return
	}
	n := float64(a.runs)
	r.set("sagert.alloc_mb", float64(a.allocBytes)/(1<<20)/n)
	r.set("sagert.allocs_per_event", float64(a.mallocs)/float64(a.dispatches))
	r.set("sagert.dispatches", float64(a.dispatches)/n)
	r.set("sagert.events_per_s", float64(a.dispatches)/a.wall)
	r.set("sagert.compute_ms", a.compute/n)
	r.set("sagert.copy_ms", a.copies/n)
	r.set("sagert.comm_ms", a.comms/n)
}

func ms[D ~int64](d D) float64 { return float64(d) / 1e6 }

// signature is what must not change between repetitions of one simulation.
type signature struct {
	elapsed    int64
	dispatches uint64
}

// sameAs checks a repetition against the first one seen under key.
func sameAs(r *report, seen map[string]signature, key string, s signature) {
	if first, ok := seen[key]; !ok {
		seen[key] = s
	} else {
		r.check(first == s, "%s: repetition changed the simulation: %+v then %+v", key, first, s)
	}
}

// sourceMatrix is the source function's iteration-0 data set for seed,
// computed independently of the pipeline.
func sourceMatrix(seed int64, n int) *isspl.Matrix {
	m := isspl.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			m.Set(r, c, funclib.SourceValue(seed, 0, r, c))
		}
	}
	return m
}

// referenceFFT2D is isspl's 2D FFT of the source data set.
func referenceFFT2D(seed int64, n int) (*isspl.Matrix, error) {
	m := sourceMatrix(seed, n)
	return m, isspl.FFT2D(m.Data, n)
}

// closeTo reports whether got matches want within a tolerance scaled to the
// data (an FFT of an n×n set of unit samples grows to about n).
func closeTo(got, want *isspl.Matrix) bool {
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		return false
	}
	scale := 1.0
	for _, v := range want.Data {
		scale = math.Max(scale, math.Abs(real(v))+math.Abs(imag(v)))
	}
	return got.MaxDiff(want) <= 1e-9*scale
}

func bitwiseEqual(a, b *isspl.Matrix) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(real(a.Data[i])) != math.Float64bits(real(b.Data[i])) ||
			math.Float64bits(imag(a.Data[i])) != math.Float64bits(imag(b.Data[i])) {
			return false
		}
	}
	return true
}

// runTable1 is one row of the paper's Table 1.0 at its largest size: the
// SAGE 2D FFT and corner turn, 1024x1024 on 8 CSPI nodes, under the §3.3
// protocol (sequential, 100 iterations, the first computing real data), with
// the hand-coded baselines for "% of hand coded". One operation is the
// row's SAGE side: both SAGE runs.
func runTable1(cfg *config) (*report, error) {
	const n, nodes, iters = 1024, 8, 100
	r := newReport()
	layerDefaults(r)
	sp := cfg.sp
	pl := platforms.CSPI()
	kinds := []experiments.AppKind{experiments.AppFFT2D, experiments.AppCornerTurn}
	wantFFT, err := referenceFFT2D(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	wantCT := sourceMatrix(cfg.seed, n).Transposed()
	want := []*isspl.Matrix{wantFFT, wantCT}

	tables := make([]*gluegen.Tables, len(kinds))
	sage := make([]float64, len(kinds)) // virtual average latency, ns
	var acc sagertAcc
	var virtual float64
	seen := map[string]signature{}
	opts := sagert.Options{Iterations: iters, Sequential: true}

	op := func(parent int) (float64, error) {
		var elapsed, wall float64
		for i, k := range kinds {
			res, sec, err := acc.run(sp, parent, tables[i], pl, opts)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", k, err)
			}
			wall += sec
			if i == 0 {
				r.check(closeTo(res.Output, want[i]), "%s: SAGE output differs from isspl.FFT2D of the source", k)
			} else {
				r.check(bitwiseEqual(res.Output, want[i]), "%s: SAGE output is not the transpose of the source", k)
			}
			sameAs(r, seen, string(k), signature{int64(res.Elapsed), res.Dispatches})
			sage[i] = float64(res.AvgLatency())
			elapsed += ms(res.Elapsed)
		}
		virtual = elapsed
		return wall, nil
	}
	hand := func() error {
		var pct, handVirtual float64
		start := time.Now()
		for i, k := range kinds {
			hc := handcoded.Config{Platform: pl, Nodes: nodes, N: n, Iterations: iters, Seed: cfg.seed}
			var res *handcoded.Result
			err := sp.call("handcoded.run", -1, func() error {
				var err error
				if k == experiments.AppFFT2D {
					res, err = handcoded.FFT2D(hc)
				} else {
					res, err = handcoded.CornerTurn(hc)
				}
				return err
			})
			r.attempted++
			if err != nil {
				r.failed++
				return fmt.Errorf("hand-coded %s: %w", k, err)
			}
			if i == 0 {
				r.check(closeTo(res.Output, want[i]), "hand-coded %s output differs from isspl.FFT2D", k)
			} else {
				r.check(bitwiseEqual(res.Output, want[i]), "hand-coded %s output is not the transpose", k)
			}
			pct += 100 * float64(res.AvgLatency()) / sage[i] / float64(len(kinds))
			handVirtual += ms(res.AvgLatency())
		}
		r.set("handcoded.run_s", time.Since(start).Seconds())
		r.set("handcoded.virtual_ms", handVirtual)
		r.set("pct_of_hand", pct)
		return nil
	}
	err = runBatch(cfg, r, batch{
		setups: 21,
		perOp:  7,
		setup: func(parent int) error {
			for i, k := range kinds {
				t, err := buildTables(sp, parent, seededApp(k, n, nodes, cfg.seed), model.SpreadParallel, pl, nodes)
				if err != nil {
					return err
				}
				tables[i] = t
			}
			return nil
		},
		// The first pass runs about a fifth away from the steady ones; it
		// also runs the hand-coded baselines, which need the SAGE latencies.
		warm: func() error {
			r.attempted++
			if _, err := op(-1); err != nil {
				r.failed++
				return err
			}
			return hand()
		},
		op:    op,
		limit: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	r.setN("virtual_ms", virtual, acc.runs, 0)
	acc.report(r)
	r.set("gluegen.threads", float64(tableThreads(tables[0])+tableThreads(tables[1])))
	setSetupLayers(r, sp)
	twiddleRatio(r)
	return r, nil
}

// setSetupLayers reports the median of each set-up step's spans.
func setSetupLayers(r *report, sp *spans) {
	for _, name := range []string{"model.build", "model.map", "gluegen.generate", "twin.build", "twin.predict", "codegen.plan", "codegen.emit"} {
		if s := sp.seconds(name); len(s) > 0 {
			r.set(name+"_s", median(s))
		}
	}
}

// twiddleRatio reports the isspl twiddle-factor cache's hit ratio since the
// process started.
func twiddleRatio(r *report) {
	st := isspl.TwiddleCacheStats()
	if total := st.Hits + st.Misses; total > 0 {
		r.set("isspl.twiddle_hit_ratio", float64(st.Hits)/float64(total))
	}
}

// runWide is a 2D FFT (n=256, 128 threads per function) staggered across
// 1024 Mercury nodes, pipelined with default options: ~150k events per run on
// tiny blocks, so the event heap and process handoff dominate. The twin
// prices the tables before the simulation runs them. One operation is one
// sagert.Run.
func runWide(cfg *config) (*report, error) {
	const n, threads, nodes = 256, 128, 1024
	r := newReport()
	layerDefaults(r)
	sp := cfg.sp
	pl, err := platforms.ByName("Mercury")
	if err != nil {
		return nil, err
	}
	want, err := referenceFFT2D(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	var tables *gluegen.Tables
	var pred *twin.Prediction
	var acc sagertAcc
	var last *sagert.Result
	seen := map[string]signature{}
	op := func(parent int) (float64, error) {
		res, sec, err := acc.run(sp, parent, tables, pl, sagert.Options{})
		if err != nil {
			return 0, err
		}
		r.check(closeTo(res.Output, want), "wide FFT output differs from isspl.FFT2D of the source")
		sameAs(r, seen, "wide", signature{int64(res.Elapsed), res.Dispatches})
		last = res
		return sec, nil
	}
	err = runBatch(cfg, r, batch{
		setups: 7,
		setup: func(parent int) error {
			t, err := buildTables(sp, parent, seededApp(experiments.AppFFT2D, n, threads, cfg.seed), model.StaggerParallel, pl, nodes)
			if err != nil {
				return err
			}
			tables = t
			var ev *twin.Evaluator
			if err := sp.call("twin.build", parent, func() error {
				var err error
				ev, err = twin.NewEvaluator(t, pl)
				return err
			}); err != nil {
				return err
			}
			return sp.call("twin.predict", parent, func() error {
				pred = ev.Predict(twin.Options{})
				return nil
			})
		},
		warm: func() error {
			r.attempted++
			_, err := op(-1)
			return err
		},
		op:     op,
		limit:  5 * time.Second,
		traced: func() error { return shardSpeedup(r, tables, pl) },
	})
	if err != nil {
		return nil, err
	}
	if last != nil {
		r.setN("virtual_ms", ms(last.Elapsed), acc.runs, 0)
		r.set("twin.err_pct", 100*math.Abs(float64(pred.Elapsed)-float64(last.Elapsed))/float64(last.Elapsed))
	}
	acc.report(r)
	r.set("gluegen.threads", float64(tableThreads(tables)))
	setSetupLayers(r, sp)
	twiddleRatio(r)
	return r, nil
}

// shardSpeedup is run_s on the sequential kernel over run_s on nproc shards,
// three alternating runs each, untraced.
func shardSpeedup(r *report, t *gluegen.Tables, pl machine.Platform) error {
	w, err := twin.ShardWeights(t, pl, twin.Options{})
	if err != nil {
		return err
	}
	k := runtime.NumCPU()
	var seq, sharded []float64
	for i := 0; i < 3; i++ {
		for _, shards := range []int{1, k} {
			start := time.Now()
			if _, err := sagert.Run(t, pl, sagert.Options{Shards: shards, ShardWeights: w}); err != nil {
				return err
			}
			if shards == 1 {
				seq = append(seq, time.Since(start).Seconds())
			} else {
				sharded = append(sharded, time.Since(start).Seconds())
			}
		}
	}
	r.set("sim.shard_speedup", median(seq)/median(sharded))
	return nil
}

// runExec lowers the table1-1024 FFT tables with codegen.Plan and
// codegen.EmitSource and runs the plan on real data with rtl.Execute: real
// FFTs and region copies, no simulator. The emitted source is never compiled;
// compiler time is not the program. One operation is one rtl.Execute.
func runExec(cfg *config) (*report, error) {
	const n, nodes = 1024, 8
	r := newReport()
	layerDefaults(r)
	sp := cfg.sp
	pl := platforms.CSPI()
	var (
		tables      *gluegen.Tables
		prog        *rtl.Program
		emitted     int
		acc         sagertAcc
		simOut      *isspl.Matrix
		first, last *rtl.Result
		execs       int
		alloc       uint64
	)
	// Every repetition must equal the first bit for bit; the canonical text
	// of the first and the last is hashed too, at the end.
	op := func(parent int) (float64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res *rtl.Result
		start := time.Now()
		err := sp.call("rtl.execute", parent, func() error {
			var err error
			res, err = rtl.Execute(prog)
			return err
		})
		sec := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, err
		}
		execs++
		alloc += after.TotalAlloc - before.TotalAlloc
		if first == nil {
			first = res
			r.check(bitwiseEqual(res.Iters[0]["sink"], simOut), "exec output differs from the sagert compute iteration")
		}
		r.check(len(res.Iters) == len(first.Iters) && bitwiseEqual(res.Iters[0]["sink"], first.Iters[0]["sink"]),
			"exec output changed between repetitions")
		last = res
		return sec, nil
	}
	err := runBatch(cfg, r, batch{
		setups: 21,
		perOp:  1,
		setup: func(parent int) error {
			t, err := buildTables(sp, parent, seededApp(experiments.AppFFT2D, n, nodes, cfg.seed), model.SpreadParallel, pl, nodes)
			if err != nil {
				return err
			}
			tables = t
			if err := sp.call("codegen.plan", parent, func() error {
				prog, err = codegen.Plan(t, 1)
				return err
			}); err != nil {
				return err
			}
			return sp.call("codegen.emit", parent, func() error {
				src, err := codegen.EmitSource(prog)
				emitted = len(src)
				return err
			})
		},
		// The simulated runtime's compute iteration is the reference the real
		// execution must equal bit for bit; it is checked against isspl too.
		warm: func() error {
			r.attempted++
			res, _, err := acc.run(sp, -1, tables, pl, sagert.Options{Iterations: 1})
			if err != nil {
				r.failed++
				return err
			}
			want, err := referenceFFT2D(cfg.seed, n)
			if err != nil {
				return err
			}
			r.check(closeTo(res.Output, want), "sagert FFT output differs from isspl.FFT2D of the source")
			simOut = res.Output
			r.setN("virtual_ms", ms(res.Elapsed), 1, 0)
			r.attempted++
			_, err = op(-1)
			return err
		},
		op:    op,
		limit: 5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	h0, err := textHash(first)
	if err != nil {
		return nil, err
	}
	h1, err := textHash(last)
	if err != nil {
		return nil, err
	}
	r.check(h0 == h1, "exec output text hash changed between the first and the last repetition")
	acc.report(r)
	if s := sp.seconds("rtl.execute"); len(s) > 0 {
		r.set("rtl.execute_s", median(s))
	}
	r.set("rtl.alloc_mb", float64(alloc)/(1<<20)/float64(max(execs, 1)))
	r.set("codegen.emit_bytes", float64(emitted))
	r.set("gluegen.threads", float64(tableThreads(tables)))
	setSetupLayers(r, sp)
	twiddleRatio(r)
	return r, nil
}

// textHash is the SHA-256 of a result's canonical sage-exec-output text.
func textHash(res *rtl.Result) ([32]byte, error) {
	var text bytes.Buffer
	if err := res.WriteText(&text); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(text.Bytes()), nil
}
