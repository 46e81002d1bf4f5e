// sage-designer is the command-line face of the SAGE Designer: it creates
// benchmark application models, validates models against the function
// library, and prints summaries.
//
// Usage:
//
//	sage-designer -new fft2d -n 1024 -threads 8 -o fft2d.sage
//	sage-designer -model fft2d.sage -summary
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/funclib"
	"repro/internal/model"
	"repro/internal/platforms"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain parses flags and maps errors to the shared exit-code discipline:
// usage mistakes exit 2, load/validation failures exit 1.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sage-designer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	newApp := fs.String("new", "", "create a benchmark model: fft2d | cornerturn | stap")
	n := fs.Int("n", 1024, "matrix edge for -new (power of two)")
	threads := fs.Int("threads", 8, "worker thread count for -new")
	out := fs.String("o", "", "output file for -new (default stdout)")
	modelFile := fs.String("model", "", "model file to load")
	summary := fs.Bool("summary", false, "print a model summary")
	kinds := fs.Bool("kinds", false, "list the function library (software shelf)")
	newHW := fs.String("new-hw", "", "emit a hardware design from a registry platform (CSPI|Mercury|SKY|SIGI|Workstations)")
	boards := fs.Int("boards", 2, "board count for -new-hw")
	hwFile := fs.String("hw", "", "hardware design file to validate and summarise")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if err := run(*newApp, *n, *threads, *out, *modelFile, *summary, *kinds, *newHW, *boards, *hwFile); err != nil {
		fmt.Fprintln(stderr, "sage-designer:", err)
		return cli.ExitCode(err)
	}
	return cli.ExitOK
}

func run(newApp string, n, threads int, out, modelFile string, summary, kinds bool, newHW string, boards int, hwFile string) error {
	if newHW != "" {
		pl, err := platforms.ByName(newHW)
		if err != nil {
			return err
		}
		sys := model.SystemFromPlatform(pl, boards)
		w := os.Stdout
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return sys.WriteHWText(w)
	}
	if hwFile != "" {
		f, err := os.Open(hwFile)
		if err != nil {
			return err
		}
		defer f.Close()
		sys, err := model.ReadHWText(f)
		if err != nil {
			return err
		}
		pl := sys.Platform()
		fmt.Printf("hardware %q: OK\n", sys.Name)
		fmt.Printf("  %d boards x %d procs = %d nodes\n", sys.NumBoards, sys.Board.NumProcs, sys.NumNodes())
		fmt.Printf("  cpu %s: %.0f MHz, %.2f flops/cycle, copy %.0f MB/s\n",
			sys.Board.Proc.Name, pl.ClockHz/1e6, pl.FlopsPerCycle, pl.MemCopyBW/1e6)
		fmt.Printf("  fabric %s: %.0f MB/s, latency %v, alltoall %s\n",
			sys.Fabric.Name, pl.InterBW/1e6, pl.InterLatency, pl.AllToAll)
		return nil
	}
	if kinds {
		fmt.Println("function library (software shelf):")
		for _, k := range funclib.Kinds() {
			im, err := funclib.Lookup(k)
			if err != nil {
				return err
			}
			fmt.Printf("  %-16s %s\n", k, im.Doc)
		}
		return nil
	}
	if newApp != "" {
		app, err := core.NewApp(newApp, n, threads)
		if errors.Is(err, core.ErrUnknown) {
			return cli.Usagef("%v", err)
		}
		if err != nil {
			return err
		}
		w := os.Stdout
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return app.WriteText(w)
	}
	if modelFile == "" {
		return cli.Usagef("nothing to do: pass -new, -model or -kinds")
	}
	f, err := os.Open(modelFile)
	if err != nil {
		return err
	}
	defer f.Close()
	app, err := model.ReadText(f)
	if err != nil {
		return err
	}
	if err := app.Validate(); err != nil {
		return fmt.Errorf("model invalid: %w", err)
	}
	if err := funclib.ValidateApp(app); err != nil {
		return fmt.Errorf("model invalid against function library: %w", err)
	}
	fmt.Printf("model %q: OK\n", app.Name)
	if summary {
		printSummary(app)
	}
	return nil
}

func printSummary(app *model.App) {
	fmt.Printf("\n%d data types, %d functions, %d arcs\n\n", len(app.Types), len(app.Functions), len(app.Arcs))
	for _, fn := range app.Functions {
		fmt.Printf("  [%d] %-14s kind=%-16s threads=%d\n", fn.ID, fn.Name, fn.Kind, fn.Threads)
		for _, p := range fn.Inputs {
			fmt.Printf("        in  %-8s %4dx%-4d %s\n", p.Name, p.Type.Rows, p.Type.Cols, p.Striping)
		}
		for _, p := range fn.Outputs {
			fmt.Printf("        out %-8s %4dx%-4d %s\n", p.Name, p.Type.Rows, p.Type.Cols, p.Striping)
		}
	}
	fmt.Println()
	for _, a := range app.Arcs {
		fmt.Printf("  arc %s\n", a)
	}
}
