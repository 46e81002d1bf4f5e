// Package core is the one spec-to-tables path of the reproduction: the
// paper's model → AToT mapping → Alter glue-generation flow. Build turns a
// Spec — a named benchmark or a parsed model, a platform, a node count and a
// mapping given by strategy name or explicitly — into a Program: the model,
// the mapping, the verified runtime tables and the glue listings, ready to
// execute any number of times on fresh simulated machines.
//
// Every surface that starts from names goes through this package: the sage
// facade, sage-serve, stream scenarios, the experiment harness and the CLI
// tools. It holds the only app-name switch and the only mapping-name switch
// in the program. Code that already holds a model and a mapping (conformance,
// the twin's mapping search, experiment cells with custom mappings) calls
// gluegen.Generate directly. File I/O stays with the callers.
package core

import (
	"errors"
	"fmt"

	"repro/internal/apps"
	"repro/internal/atot"
	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sagert"
	"repro/internal/trace"
	"repro/internal/viz"
)

// ErrUnknown marks a spec naming an app or mapping strategy Build does not
// know; commands map it to a usage error. Test with errors.Is.
var ErrUnknown = errors.New("unknown")

// Spec describes one spec-to-tables request.
type Spec struct {
	// App names a generated benchmark: fft2d | cornerturn (alias ct) | stap.
	App string
	// Model, when non-nil, is the application model; App, N and Threads are
	// then ignored.
	Model *model.App
	// N is the benchmark matrix edge and Threads its worker-thread count per
	// parallel function.
	N, Threads int
	// Platform is the target hardware descriptor.
	Platform machine.Platform
	// Nodes is the processor count.
	Nodes int
	// Mapping names the strategy: spread (the default) | stagger |
	// roundrobin | greedy | ga.
	Mapping string
	// Assign, when non-nil, is an explicit mapping used instead of Mapping.
	Assign *model.Mapping
	// AssignApp is the app name Assign was written for (a mapping file's
	// header); Build rejects a mismatch with the model. Empty skips the check.
	AssignApp string
	// GA tunes the ga strategy (its Seed drives the search).
	GA atot.GAConfig
	// Script is the Alter generator; empty selects gluegen.StandardScript.
	Script string
}

// Program is generated glue code bound to its target platform: the
// executable artifact of Figure 1.0's pipeline.
//
// A Program is immutable after Build: the runtime tables, platform
// descriptor and glue listings are only ever read. Run creates a fresh
// simulated machine (its own sim.Kernel, nodes and MPI world) per call and
// shuts it down on exit, so a single Program may be executed from many
// goroutines concurrently — the parallel experiment engine relies on this.
// The packages underneath hold no mutable process-wide state either: the
// funclib and platforms registries are written only during init, and
// isspl's twiddle cache is lock-guarded.
type Program struct {
	App       *model.App
	Mapping   *model.Mapping
	Platform  machine.Platform
	Artifacts *gluegen.Output
	// GA reports the genetic mapper's work when the strategy was ga.
	GA *atot.GAStats
}

// Tables exposes the verified runtime tables.
func (p *Program) Tables() *gluegen.Tables { return p.Artifacts.Tables }

// benchmark returns the constructor of a named benchmark model.
func benchmark(name string) (func(n, threads int) (*model.App, error), error) {
	switch name {
	case "fft2d":
		return apps.FFT2D, nil
	case "cornerturn", "ct":
		return apps.CornerTurn, nil
	case "stap":
		return apps.STAP, nil
	}
	return nil, fmt.Errorf("%w app %q (want fft2d, cornerturn or stap)", ErrUnknown, name)
}

// mapper returns the named mapping strategy.
func mapper(name string) (func(app *model.App, s *Spec) (*model.Mapping, *atot.GAStats, error), error) {
	var place func(app *model.App, nodes int) (*model.Mapping, error)
	switch name {
	case "spread", "":
		place = model.SpreadParallel
	case "stagger":
		place = model.StaggerParallel
	case "roundrobin":
		place = func(app *model.App, nodes int) (*model.Mapping, error) { return model.RoundRobin(app, nodes), nil }
	case "greedy", "ga":
		return func(app *model.App, s *Spec) (*model.Mapping, *atot.GAStats, error) {
			ev, err := atot.NewEvaluator(app, s.Platform, s.Nodes)
			if err != nil {
				return nil, nil, err
			}
			if name == "ga" {
				return atot.MapGA(ev, s.GA)
			}
			m, err := atot.MapGreedy(ev)
			return m, nil, err
		}, nil
	default:
		return nil, fmt.Errorf("%w mapping %q (want spread, stagger, roundrobin, greedy or ga)", ErrUnknown, name)
	}
	return func(app *model.App, s *Spec) (*model.Mapping, *atot.GAStats, error) {
		m, err := place(app, s.Nodes)
		return m, nil, err
	}, nil
}

// NewApp builds a named benchmark model.
func NewApp(name string, n, threads int) (*model.App, error) {
	build, err := benchmark(name)
	if err != nil {
		return nil, err
	}
	return build(n, threads)
}

// Check validates the spec's names and sizes without building anything, so
// a service can reject a bad request before queueing it. A spec with
// neither App nor Model passes Check and fails Build.
func (s *Spec) Check() error {
	if s.Nodes < 1 {
		return fmt.Errorf("nodes must be positive, got %d", s.Nodes)
	}
	if s.Model == nil && s.App != "" {
		if _, err := benchmark(s.App); err != nil {
			return err
		}
		if err := apps.CheckSize(s.N, s.Threads); err != nil {
			return err
		}
	}
	if s.Assign == nil {
		_, err := mapper(s.Mapping)
		return err
	}
	return nil
}

// Build resolves the spec end to end: it builds or validates the model,
// maps it, then generates and verifies glue code. Build reads a given model
// and writes only its own fresh artifacts (each call runs a private Alter
// interpreter), so distinct Build calls may run concurrently as long as
// they don't share a mutable *model.App.
func Build(s Spec) (*Program, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	p := &Program{App: s.Model, Mapping: s.Assign, Platform: s.Platform}
	var err error
	switch {
	case p.App != nil:
		err = funclib.ValidateApp(p.App)
	case s.App != "":
		p.App, err = NewApp(s.App, s.N, s.Threads)
	default:
		err = fmt.Errorf("spec names no app or model")
	}
	if err != nil {
		return nil, err
	}
	if p.Mapping == nil {
		mapApp, _ := mapper(s.Mapping)
		if p.Mapping, p.GA, err = mapApp(p.App, &s); err != nil {
			return nil, fmt.Errorf("mapping: %w", err)
		}
	} else if s.AssignApp != "" && s.AssignApp != p.App.Name {
		return nil, fmt.Errorf("mapping is for app %q, model is %q", s.AssignApp, p.App.Name)
	}
	if s.Script == "" {
		s.Script = gluegen.StandardScript
	}
	p.Artifacts, err = gluegen.GenerateWith(gluegen.Input{App: p.App, Mapping: p.Mapping, Platform: s.Platform, NumNodes: s.Nodes}, s.Script)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Run executes the program on a fresh simulated machine.
func (p *Program) Run(opts sagert.Options) (*sagert.Result, error) {
	return sagert.Run(p.Artifacts.Tables, p.Platform, opts)
}

// RunTraced executes with a trace collector and returns the Visualizer
// trace built from its phase spans alongside the result.
func (p *Program) RunTraced(opts sagert.Options) (*sagert.Result, *viz.Trace, error) {
	opts.Collector = trace.New(p.App.Name + " on " + p.Platform.Name)
	res, err := p.Run(opts)
	if err != nil {
		return nil, nil, err
	}
	return res, viz.FromCollector(opts.Collector, p.Tables()), nil
}
