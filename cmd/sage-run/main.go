// sage-run executes a model under the SAGE runtime on the simulated
// multicomputer: it loads (or generates) a mapping, generates the glue
// tables (or loads pre-generated table source), runs the configured number
// of iterations, and reports period and latency per §3.3. With -viz it
// prints the Visualizer report; with -trace-csv / -svg it exports the probe
// events (all three read the run's trace collector); with -trace it writes
// a Chrome trace-event JSON of the whole run (kernel, runtime and MPI
// layers) for chrome://tracing or Perfetto.
//
// Usage:
//
//	sage-run -model fft2d.sage -platform CSPI -nodes 8 -iterations 100
//	sage-run -model fft2d.sage -mapping fft2d.map -viz -trace-csv trace.csv
//	sage-run -tables fft2d.tbl                  # run pre-generated glue
//	sage-run -model fft2d.sage -hw custom.hw    # custom hardware design
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/trace"
	"repro/internal/twin"
	"repro/internal/viz"
)

type options struct {
	modelFile, mappingFile, platformName, hwFile, tablesFile string
	nodes, iterations, shards                                int
	sequential, optimized, vizReport                         bool
	traceCSV, svgOut, traceOut                               string
	latencyBound                                             time.Duration
}

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain parses flags and maps errors to the shared exit-code discipline:
// usage mistakes exit 2, run failures exit 1.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sage-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.modelFile, "model", "", "model file (or use -tables)")
	fs.StringVar(&o.mappingFile, "mapping", "", "mapping file (default: spread mapping)")
	fs.StringVar(&o.platformName, "platform", "CSPI", "target platform from the registry")
	fs.StringVar(&o.hwFile, "hw", "", "custom hardware design file (overrides -platform)")
	fs.StringVar(&o.tablesFile, "tables", "", "pre-generated runtime table source to execute (skips generation)")
	fs.IntVar(&o.nodes, "nodes", 8, "processor count (ignored with -tables)")
	fs.IntVar(&o.iterations, "iterations", 10, "data sets to process")
	fs.IntVar(&o.shards, "shards", 1, "simulate on up to this many host cores (byte-identical results; falls back to 1 when the run cannot shard)")
	fs.BoolVar(&o.sequential, "sequential", false, "process one data set at a time (no pipelining)")
	fs.BoolVar(&o.optimized, "optimized-buffers", false, "enable the future-work buffer optimisation")
	fs.BoolVar(&o.vizReport, "viz", false, "print the Visualizer report")
	fs.StringVar(&o.traceCSV, "trace-csv", "", "export probe events as CSV")
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto)")
	fs.StringVar(&o.svgOut, "svg", "", "export the execution timeline as SVG")
	fs.DurationVar(&o.latencyBound, "latency-threshold", 0, "flag iterations over this latency")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if err := run(o); err != nil {
		fmt.Fprintln(stderr, "sage-run:", err)
		return cli.ExitCode(err)
	}
	return cli.ExitOK
}

// resolvePlatform picks the hardware: a custom design file or the registry.
func resolvePlatform(o options) (machine.Platform, int, error) {
	if o.hwFile != "" {
		f, err := os.Open(o.hwFile)
		if err != nil {
			return machine.Platform{}, 0, err
		}
		defer f.Close()
		sys, err := model.ReadHWText(f)
		if err != nil {
			return machine.Platform{}, 0, err
		}
		return sys.Platform(), sys.NumNodes(), nil
	}
	pl, err := platforms.ByName(o.platformName)
	return pl, o.nodes, err
}

// loadTables obtains runtime tables: from a pre-generated table-source file
// or by generating from a model + mapping.
func loadTables(o options, pl machine.Platform, nodes int) (*gluegen.Tables, error) {
	if o.tablesFile != "" {
		src, err := os.ReadFile(o.tablesFile)
		if err != nil {
			return nil, err
		}
		tables, err := gluegen.ParseTableSource(string(src))
		if err != nil {
			return nil, err
		}
		if err := tables.Verify(); err != nil {
			return nil, err
		}
		return tables, nil
	}
	if o.modelFile == "" {
		return nil, cli.Usagef("pass -model or -tables")
	}
	mf, err := os.Open(o.modelFile)
	if err != nil {
		return nil, err
	}
	app, err := model.ReadText(mf)
	mf.Close()
	if err != nil {
		return nil, err
	}
	spec := core.Spec{Model: app, Platform: pl, Nodes: nodes}
	if o.mappingFile != "" {
		pf, err := os.Open(o.mappingFile)
		if err != nil {
			return nil, err
		}
		spec.Assign, spec.AssignApp, err = model.ReadMappingText(pf)
		pf.Close()
		if err != nil {
			return nil, err
		}
	}
	prog, err := core.Build(spec)
	if err != nil {
		return nil, err
	}
	return prog.Tables(), nil
}

func run(o options) error {
	pl, nodes, err := resolvePlatform(o)
	if err != nil {
		return err
	}
	tables, err := loadTables(o, pl, nodes)
	if err != nil {
		return err
	}
	if o.tablesFile != "" && tables.Platform != pl.Name {
		// Pre-generated tables carry their target; honor it.
		pl, err = platforms.ByName(tables.Platform)
		if err != nil {
			return fmt.Errorf("tables target platform %q: %w", tables.Platform, err)
		}
	}
	opts := sagert.Options{Iterations: o.iterations, Sequential: o.sequential, OptimizedBuffers: o.optimized, Shards: o.shards}
	if o.shards > 1 {
		// Seed the shard partitioner with the twin's per-node busy forecast;
		// uniform weights are a fine fallback when the twin refuses.
		if w, err := twin.ShardWeights(tables, pl, twin.Options{
			Iterations: o.iterations, Sequential: o.sequential, OptimizedBuffers: o.optimized,
		}); err == nil {
			opts.ShardWeights = w
		}
	}
	wantViz := o.vizReport || o.traceCSV != "" || o.svgOut != ""
	if wantViz || o.traceOut != "" {
		opts.Collector = trace.New(tables.AppName + " on " + pl.Name)
	}
	res, err := sagert.Run(tables, pl, opts)
	if err != nil {
		return err
	}
	var vtrace *viz.Trace
	if wantViz {
		vtrace = viz.FromCollector(opts.Collector, tables)
	}
	fmt.Printf("app %s on %s (%d nodes), %d iterations\n", tables.AppName, pl.Name, tables.NumNodes, o.iterations)
	fmt.Printf("  period:      %v per data set\n", res.Period)
	fmt.Printf("  avg latency: %v\n", res.AvgLatency())
	fmt.Printf("  elapsed:     %v virtual\n", res.Elapsed)
	for _, ns := range res.NodeStats {
		fmt.Printf("  node %-3d compute=%-14v copy=%-14v comm=%-14v util=%5.1f%%\n",
			ns.Node, ns.ComputeBusy, ns.CopyBusy, ns.CommBusy, 100*ns.Utilization)
	}
	if o.latencyBound > 0 {
		for _, v := range viz.CheckLatencies(res.Latencies, o.latencyBound) {
			fmt.Printf("  LATENCY VIOLATION: iteration %d took %v (threshold %v)\n", v.Iteration, v.Latency, v.Threshold)
		}
	}
	if o.vizReport {
		fmt.Println()
		if err := vtrace.Report(os.Stdout, 100); err != nil {
			return err
		}
	}
	if o.traceCSV != "" {
		f, err := os.Create(o.traceCSV)
		if err != nil {
			return err
		}
		if err := vtrace.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		t := trace.NewTrace()
		t.Add(opts.Collector)
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := t.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  trace:       %s\n", o.traceOut)
	}
	if o.svgOut != "" {
		f, err := os.Create(o.svgOut)
		if err != nil {
			return err
		}
		if err := vtrace.WriteSVG(f, 1200); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
