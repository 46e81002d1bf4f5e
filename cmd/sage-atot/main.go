// sage-atot runs the Architecture Trades and Optimization Tool's mapping
// stage: it loads a model, maps its threads onto a platform with the genetic
// algorithm (or a baseline), prints the cost breakdown and estimated
// schedule, and optionally writes the mapping file consumed by
// sage-gluegen/sage-run.
//
// Usage:
//
//	sage-atot -model fft2d.sage -platform CSPI -nodes 8 -o fft2d.map
//	sage-atot -model fft2d.sage -platform CSPI -nodes 8 -strategy greedy
//	sage-atot -model fft2d.sage -platform CSPI -nodes 8 -strategy twin -topk 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/atot"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/funclib"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/twin"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain parses flags and maps errors to the shared exit-code discipline:
// usage mistakes exit 2, mapping failures exit 1.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sage-atot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelFile := fs.String("model", "", "model file (required)")
	platformName := fs.String("platform", "CSPI", "target platform")
	nodes := fs.Int("nodes", 8, "processor count")
	strategy := fs.String("strategy", "ga", "mapping strategy: ga | twin | greedy | roundrobin | spread")
	pop := fs.Int("pop", 64, "GA population")
	gens := fs.Int("gens", 150, "GA generations")
	seed := fs.Int64("seed", 1, "GA seed")
	topK := fs.Int("topk", 4, "twin strategy: candidates promoted to DES evaluation")
	iters := fs.Int("iterations", 4, "twin strategy: iterations per scored run")
	parallel := fs.Int("parallel", 0, "worker pool width for scoring (0 = all cores)")
	schedule := fs.Bool("schedule", false, "print the estimated execution schedule")
	out := fs.String("o", "", "write the mapping file")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	cfg := runConfig{
		strategy: *strategy, pop: *pop, gens: *gens, seed: *seed,
		topK: *topK, iterations: *iters, parallel: *parallel,
		schedule: *schedule, out: *out,
	}
	if err := run(*modelFile, *platformName, *nodes, cfg); err != nil {
		fmt.Fprintln(stderr, "sage-atot:", err)
		return cli.ExitCode(err)
	}
	return cli.ExitOK
}

type runConfig struct {
	strategy   string
	pop, gens  int
	seed       int64
	topK       int
	iterations int
	parallel   int
	schedule   bool
	out        string
}

func run(modelFile, platformName string, nodes int, rc runConfig) error {
	if modelFile == "" {
		return cli.Usagef("-model is required")
	}
	f, err := os.Open(modelFile)
	if err != nil {
		return err
	}
	app, err := model.ReadText(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := funclib.ValidateApp(app); err != nil {
		return err
	}
	pl, err := platforms.ByName(platformName)
	if err != nil {
		return err
	}
	ga := atot.GAConfig{Population: rc.pop, Generations: rc.gens, Seed: rc.seed, Parallelism: rc.parallel}
	var mapping *model.Mapping
	if rc.strategy == "twin" {
		res, err := twin.MapGAPromote(app, pl, nodes, rc.topK, ga, twin.Options{Iterations: rc.iterations})
		if err != nil {
			return err
		}
		mapping = res.Mapping
		fmt.Printf("twin GA: %d generations, %d twin evaluations, %d candidates promoted to DES\n",
			res.Stats.Generations, res.Stats.Evaluations, len(res.Candidates))
		for i, c := range res.Candidates {
			mark := " "
			if i == res.Winner {
				mark = "*"
			}
			fmt.Printf("  %s candidate %d: twin=%v des=%v\n", mark, i, c.TwinElapsed, c.DESElapsed)
		}
	} else {
		prog, err := core.Build(core.Spec{Model: app, Platform: pl, Nodes: nodes, Mapping: rc.strategy, GA: ga})
		if errors.Is(err, core.ErrUnknown) {
			return cli.Usagef("%v", err)
		}
		if err != nil {
			return err
		}
		mapping = prog.Mapping
		if prog.GA != nil {
			fmt.Printf("GA: %d generations, %d evaluations, best objective %.4g\n",
				prog.GA.Generations, prog.GA.Evaluations, prog.GA.Best.Total)
		}
	}

	ev, err := atot.NewEvaluator(app, pl, nodes)
	if err != nil {
		return err
	}
	cost, err := ev.Evaluate(mapping, atot.Weights{})
	if err != nil {
		return err
	}
	fmt.Printf("mapping cost: max-node-busy=%v comm=%v critical-path=%v\n",
		cost.MaxNodeBusy, cost.Comm, cost.CriticalPath)
	for _, fn := range app.Functions {
		fmt.Printf("  %-14s -> nodes %v\n", fn.Name, mapping.Assign[fn.Name])
	}

	if rc.schedule {
		sched, err := ev.EstimateSchedule(mapping)
		if err != nil {
			return err
		}
		fmt.Println("\nestimated schedule (one iteration):")
		for _, s := range sched {
			fmt.Printf("  %-14s[%d] node %-3d %12v .. %v\n", s.Fn, s.Thread, s.Node, s.Start, s.End)
		}
	}

	if rc.out != "" {
		f, err := os.Create(rc.out)
		if err != nil {
			return err
		}
		defer f.Close()
		return mapping.WriteText(f, app.Name)
	}
	return nil
}
