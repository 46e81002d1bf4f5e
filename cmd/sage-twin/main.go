// sage-twin is the analytical twin's front door: it predicts what a SAGE
// run would measure — elapsed virtual time, latency, period, per-node busy
// accounting, per-phase breakdowns — in closed form, without simulating a
// single event. It can also compare its prediction against the real
// discrete-event run, sweep node counts, and replay the twin-vs-DES
// calibration matrix that gates the model in CI.
//
// Usage:
//
//	sage-twin -model fft2d.sage -platform CSPI -nodes 8 -iterations 100
//	sage-twin -model fft2d.sage -nodes 8 -compare       # twin vs DES
//	sage-twin -model fft2d.sage -sweep 1,2,4,8,16,32    # scaling forecast
//	sage-twin -validate -seeds 24 -quick                # calibration gates
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/twin"
	"repro/internal/twin/validate"
)

type options struct {
	modelFile, mappingFile, platformName string
	nodes, iterations                    int
	sequential, optimized                bool
	compare                              bool
	sweep                                string
	doValidate                           bool
	seedStart                            int64
	seeds                                int
	quick                                bool
	parallel                             int
}

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain parses flags and maps errors to the shared exit-code discipline:
// usage mistakes exit 2, prediction/validation failures exit 1.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sage-twin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.modelFile, "model", "", "model file (required unless -validate)")
	fs.StringVar(&o.mappingFile, "mapping", "", "mapping file (default: spread mapping)")
	fs.StringVar(&o.platformName, "platform", "CSPI", "target platform from the registry")
	fs.IntVar(&o.nodes, "nodes", 8, "processor count")
	fs.IntVar(&o.iterations, "iterations", 10, "data sets to process")
	fs.BoolVar(&o.sequential, "sequential", false, "predict the barrier-synchronised mode")
	fs.BoolVar(&o.optimized, "optimized-buffers", false, "predict the optimised-buffer mode")
	fs.BoolVar(&o.compare, "compare", false, "also run the DES and report the prediction error")
	fs.StringVar(&o.sweep, "sweep", "", "comma-separated node counts to forecast (spread mapping each)")
	fs.BoolVar(&o.doValidate, "validate", false, "run the twin-vs-DES calibration matrix instead of predicting")
	fs.Int64Var(&o.seedStart, "seed-start", 1, "validate: first conformance seed")
	fs.IntVar(&o.seeds, "seeds", 16, "validate: number of seeded cases")
	fs.BoolVar(&o.quick, "quick", false, "validate: small graphs (the CI gate matrix)")
	fs.IntVar(&o.parallel, "parallel", 0, "validate: worker pool width (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(stderr, "sage-twin:", err)
		return cli.ExitCode(err)
	}
	return cli.ExitOK
}

func run(o options, w io.Writer) error {
	if o.doValidate {
		return runValidate(o, w)
	}
	if o.modelFile == "" {
		return cli.Usagef("-model is required (or use -validate)")
	}
	if o.iterations < 1 {
		return cli.Usagef("-iterations must be >= 1")
	}
	f, err := os.Open(o.modelFile)
	if err != nil {
		return err
	}
	app, err := model.ReadText(f)
	f.Close()
	if err != nil {
		return err
	}
	if o.sweep != "" {
		return runSweep(o, app, w)
	}
	return runPredict(o, app, w)
}

// predictOne builds tables for one (nodes, mapping) point and prices it.
func predictOne(o options, app *model.App, nodes int) (*twin.Prediction, *gluegen.Tables, error) {
	pl, err := platforms.ByName(o.platformName)
	if err != nil {
		return nil, nil, err
	}
	spec := core.Spec{Model: app, Platform: pl, Nodes: nodes}
	if o.mappingFile != "" {
		mf, err := os.Open(o.mappingFile)
		if err != nil {
			return nil, nil, err
		}
		spec.Assign, spec.AssignApp, err = model.ReadMappingText(mf)
		mf.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	prog, err := core.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	ev, err := twin.NewEvaluator(prog.Tables(), pl)
	if err != nil {
		return nil, nil, err
	}
	pred := ev.Predict(twin.Options{
		Iterations: o.iterations, Sequential: o.sequential, OptimizedBuffers: o.optimized,
	})
	return pred, prog.Tables(), nil
}

func runPredict(o options, app *model.App, w io.Writer) error {
	pred, tables, err := predictOne(o, app, o.nodes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s on %s, %d nodes, %d iterations (sequential=%v optimized=%v)\n",
		app.Name, o.platformName, o.nodes, o.iterations, o.sequential, o.optimized)
	fmt.Fprintf(w, "predicted elapsed:   %v\n", pred.Elapsed)
	fmt.Fprintf(w, "predicted latency:   %v\n", pred.AvgLatency)
	fmt.Fprintf(w, "predicted period:    %v\n", pred.Period)
	fmt.Fprintf(w, "fill iteration:      %v\n", pred.FirstIteration)
	fmt.Fprintf(w, "steady iteration:    %v\n", pred.SteadyIteration)
	fmt.Fprintf(w, "bottleneck period:   %v\n", pred.BottleneckPeriod)
	fmt.Fprintf(w, "phases: recv=%v dispatch=%v compute=%v send=%v\n",
		pred.Phases.Recv, pred.Phases.Dispatch, pred.Phases.Compute, pred.Phases.Send)
	for n, nc := range pred.Nodes {
		fmt.Fprintf(w, "  node %-3d compute=%-14v copy=%-14v comm=%v\n", n, nc.Compute, nc.Copy, nc.Comm)
	}
	if o.compare {
		res, err := runDES(o, tables)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "DES elapsed:         %v (twin error %.2f%%)\n",
			sim.Duration(res.Elapsed), ape(pred.Elapsed, sim.Duration(res.Elapsed)))
		fmt.Fprintf(w, "DES latency:         %v\n", res.AvgLatency())
		fmt.Fprintf(w, "DES period:          %v\n", res.Period)
	}
	return nil
}

func runSweep(o options, app *model.App, w io.Writer) error {
	if o.mappingFile != "" {
		return cli.Usagef("-sweep derives a spread mapping per point; drop -mapping")
	}
	var counts []int
	for _, part := range strings.Split(o.sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return cli.Usagef("bad -sweep entry %q", part)
		}
		counts = append(counts, n)
	}
	fmt.Fprintf(w, "%-6s %14s %14s %14s", "nodes", "elapsed", "latency", "period")
	if o.compare {
		fmt.Fprintf(w, " %14s %7s", "des", "ape%")
	}
	fmt.Fprintln(w)
	for _, nodes := range counts {
		pred, tables, err := predictOne(o, app, nodes)
		if err != nil {
			return fmt.Errorf("nodes=%d: %w", nodes, err)
		}
		fmt.Fprintf(w, "%-6d %14v %14v %14v", nodes, pred.Elapsed, pred.AvgLatency, pred.Period)
		if o.compare {
			res, err := runDES(o, tables)
			if err != nil {
				return fmt.Errorf("nodes=%d: %w", nodes, err)
			}
			fmt.Fprintf(w, " %14v %7.2f", sim.Duration(res.Elapsed), ape(pred.Elapsed, sim.Duration(res.Elapsed)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runDES(o options, tables *gluegen.Tables) (*sagert.Result, error) {
	pl, err := platforms.ByName(o.platformName)
	if err != nil {
		return nil, err
	}
	return sagert.Run(tables, pl, sagert.Options{
		Iterations: o.iterations, Sequential: o.sequential, OptimizedBuffers: o.optimized,
	})
}

func runValidate(o options, w io.Writer) error {
	if o.seeds < 1 {
		return cli.Usagef("-seeds must be >= 1")
	}
	rep, err := validate.Validate(validate.Config{
		SeedStart: o.seedStart, Seeds: o.seeds, Quick: o.quick, Parallelism: o.parallel,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.Table())
	fmt.Fprintln(w, rep.Summary())
	if !rep.Pass() {
		return fmt.Errorf("calibration gates failed: MAPE=%.2f%% (gate %.0f%%), spearman=%.4f (gate %.2f)",
			rep.MAPE, validate.GateMAPE, rep.Spearman, validate.GateSpearman)
	}
	return nil
}

func ape(pred, des sim.Duration) float64 {
	if des == 0 {
		return 0
	}
	d := float64(pred) - float64(des)
	if d < 0 {
		d = -d
	}
	return 100 * d / float64(des)
}
