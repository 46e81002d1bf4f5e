// Package sage is the public API of the SAGE reproduction: a Go
// re-implementation of Honeywell's Systems and Applications Genesis
// Environment as described in "Auto Source Code Generation and Run-Time
// Infrastructure and Environment for High Performance, Distributed Computing
// Systems" (IPPS/IPDPS 2000 workshops).
//
// The package ties the subsystems together into the workflow of the paper:
//
//  1. model an application as a dataflow graph of library functions with
//     striped/replicated ports (Designer — internal/model, internal/funclib);
//  2. model or pick a target platform (hardware editor — internal/machine,
//     internal/platforms);
//  3. map function threads onto processors, manually or with the genetic
//     optimiser (AToT — internal/atot);
//  4. generate glue code: an Alter script traverses the model and emits the
//     runtime tables (internal/alter, internal/gluegen);
//  5. execute on the simulated multicomputer under the SAGE runtime kernel
//     (internal/sagert) and inspect probe traces (internal/viz).
//
// A minimal session:
//
//	app, _ := sage.NewFFT2DApp(1024, 8)
//	proj, _ := sage.NewProject(app, "CSPI", 8)
//	_ = proj.MapSpread()
//	out, _ := proj.Generate()
//	res, _ := proj.Run(sage.RunOptions{Iterations: 100})
//	fmt.Println(res.AvgLatency(), res.Period)
//	_ = out // generated glue source artifacts
package sage

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/atot"
	"repro/internal/core"
	"repro/internal/gluegen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/shelf"
	"repro/internal/sim"
	"repro/internal/viz"
)

// Re-exported model types for building applications programmatically.
type (
	// App is an application model (the application editor's artifact).
	App = model.App
	// Function is a behavioural block instance.
	Function = model.Function
	// DataType is a data type dictionary entry.
	DataType = model.DataType
	// Mapping assigns function threads to processors.
	Mapping = model.Mapping
	// Platform is a hardware descriptor.
	Platform = machine.Platform
	// RunOptions tunes runtime execution.
	RunOptions = sagert.Options
	// RunResult reports an execution.
	RunResult = sagert.Result
	// Trace is a collected set of visualizer probe events.
	Trace = viz.Trace
	// GAConfig tunes the AToT genetic mapper.
	GAConfig = atot.GAConfig
	// GlueOutput bundles generated tables and source artifacts.
	GlueOutput = gluegen.Output
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// Shelf catalogues reusable hierarchical blocks.
	Shelf = shelf.Shelf
	// ShelfParams parameterise a shelf-entry instantiation.
	ShelfParams = shelf.Params
)

// BuiltinShelf returns the stock shelf of reusable composite blocks
// (fft2d-stage, corner-turn-stage, detect-chain).
func BuiltinShelf() *Shelf { return shelf.Builtin() }

// Striping kinds for ports.
const (
	Replicated = model.Replicated
	ByRows     = model.ByRows
	ByCols     = model.ByCols
)

// StandardGeneratorScript is the built-in Alter glue-code generator; custom
// scripts can be composed with it (prepend audit/instrumentation passes) and
// run through Project.GenerateWith.
const StandardGeneratorScript = gluegen.StandardScript

// NewApp creates an empty application model.
func NewApp(name string) *App { return model.NewApp(name) }

// NewFFT2DApp builds the paper's Parallel 2D FFT benchmark model.
func NewFFT2DApp(n, threads int) (*App, error) { return apps.FFT2D(n, threads) }

// NewCornerTurnApp builds the paper's Distributed Corner Turn benchmark model.
func NewCornerTurnApp(n, threads int) (*App, error) { return apps.CornerTurn(n, threads) }

// NewSTAPApp builds the space-time adaptive processing example pipeline.
func NewSTAPApp(n, threads int) (*App, error) { return apps.STAP(n, threads) }

// PlatformByName returns a registered platform descriptor (CSPI, Mercury,
// SKY, SIGI, Workstations).
func PlatformByName(name string) (Platform, error) { return platforms.ByName(name) }

// PlatformNames lists the registered platforms.
func PlatformNames() []string { return platforms.Names() }

// Project is one design session: an application targeted at a platform.
type Project struct {
	App      *App
	Platform Platform
	Nodes    int
	Mapping  *Mapping
}

// NewProject validates the application (flattening composites) and pairs it
// with a platform at a node count.
func NewProject(app *App, platformName string, nodes int) (*Project, error) {
	if app == nil {
		return nil, fmt.Errorf("sage: nil application")
	}
	pl, err := platforms.ByName(platformName)
	if err != nil {
		return nil, err
	}
	return NewProjectOn(app, pl, nodes)
}

// NewProjectOn is NewProject with an explicit platform descriptor (e.g. one
// lowered from a custom hardware model).
func NewProjectOn(app *App, pl Platform, nodes int) (*Project, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("sage: %d nodes", nodes)
	}
	flat, err := app.Flatten()
	if err != nil {
		return nil, err
	}
	if err := flat.Validate(); err != nil {
		return nil, err
	}
	return &Project{App: flat, Platform: pl, Nodes: nodes}, nil
}

// MapSpread applies the canonical manual mapping: worker thread i on node i,
// single-threaded functions on node 0.
func (p *Project) MapSpread() error {
	m, err := model.SpreadParallel(p.App, p.Nodes)
	if err != nil {
		return err
	}
	p.Mapping = m
	return nil
}

// MapRoundRobin applies the naive baseline mapping.
func (p *Project) MapRoundRobin() {
	p.Mapping = model.RoundRobin(p.App, p.Nodes)
}

// AutoMap runs the AToT genetic mapper and installs the best mapping found.
// It returns the optimiser's statistics.
func (p *Project) AutoMap(cfg GAConfig) (*atot.GAStats, error) {
	ev, err := atot.NewEvaluator(p.App, p.Platform, p.Nodes)
	if err != nil {
		return nil, err
	}
	m, stats, err := atot.MapGA(ev, cfg)
	if err != nil {
		return nil, err
	}
	p.Mapping = m
	return stats, nil
}

// SetMapping installs an explicit mapping after validating it.
func (p *Project) SetMapping(m *Mapping) error {
	if err := m.Validate(p.App, p.Nodes); err != nil {
		return err
	}
	p.Mapping = m
	return nil
}

// Build runs the standard Alter glue-code generator over the mapped project
// and returns the executable Program.
func (p *Project) Build() (*core.Program, error) { return p.build("") }

// build runs the given Alter generator script (empty: the standard one).
func (p *Project) build(script string) (*core.Program, error) {
	if p.Mapping == nil {
		return nil, fmt.Errorf("sage: project has no mapping (call MapSpread, AutoMap or SetMapping)")
	}
	return core.Build(core.Spec{Model: p.App, Assign: p.Mapping, Platform: p.Platform, Nodes: p.Nodes, Script: script})
}

// Generate runs the standard Alter glue-code generator over the mapped
// project and returns the generation artifacts.
func (p *Project) Generate() (*GlueOutput, error) { return p.GenerateWith("") }

// GenerateWith runs a custom Alter generator script instead of the standard
// one (an empty script selects the standard one).
func (p *Project) GenerateWith(script string) (*GlueOutput, error) {
	prog, err := p.build(script)
	if err != nil {
		return nil, err
	}
	return prog.Artifacts, nil
}

// Run generates glue code and executes it on a fresh simulated machine.
func (p *Project) Run(opts RunOptions) (*RunResult, error) {
	prog, err := p.Build()
	if err != nil {
		return nil, err
	}
	return prog.Run(opts)
}

// RunTraced is Run with a trace collector, returning the visualizer trace
// built from it alongside the result.
func (p *Project) RunTraced(opts RunOptions) (*RunResult, *Trace, error) {
	prog, err := p.Build()
	if err != nil {
		return nil, nil, err
	}
	return prog.RunTraced(opts)
}
