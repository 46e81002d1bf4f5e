// Package sagert is the SAGE run-time kernel of §2: it executes the
// glue-code generator's runtime tables on the simulated multicomputer. The
// kernel is "responsible for all sequencing of functions, data striping, and
// buffer management": every thread of every function-table entry runs as a
// simulated process on its mapped node, receives its striped input regions
// into per-function logical buffers, dispatches the library function by its
// table ID, and sends output regions onward according to the buffers'
// striding schedules.
//
// The overhead the paper measures for auto-generated code arises here
// mechanistically, not as a fudge factor: the kernel pays a dispatch cost
// per function invocation, assembles inputs into private logical buffers
// (extra copies relative to hand-coded in-place processing — §3.4: "the SAGE
// run-time buffer management scheme assigns unique logical buffers to the
// data per function which can cause extra data access times"), packs each
// outgoing region separately, and moves data with generic point-to-point
// transfers instead of the platform's tuned collectives.
//
// Pipelining across iterations uses per-transfer credits (double buffering
// by default), so a source cannot run unboundedly ahead of its consumers —
// the runtime's buffer management in action.
package sagert

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/isspl"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options tunes a runtime execution.
type Options struct {
	// Iterations is the number of data sets to process (>= 1).
	Iterations int
	// ComputeIterations is how many initial iterations move and transform
	// real samples (for verification); the rest charge identical costs
	// without touching data. Default 1.
	ComputeIterations int
	// DispatchOverhead is the per-invocation cost of the function-table
	// dispatch and thread scheduling. Zero selects the default.
	DispatchOverhead sim.Duration
	// BufferSlots is the per-transfer pipelining credit (default 2: double
	// buffering).
	BufferSlots int
	// Sequential processes one data set at a time: every function thread
	// synchronises at an iteration barrier, so no pipelining occurs and
	// latency equals period. This is the like-for-like mode used when
	// comparing against the hand-coded benchmarks, which run a sequential
	// measurement loop (§3.3).
	Sequential bool
	// OptimizedBuffers enables the future-work optimisation the paper's
	// conclusion announces ("Work is currently underway to improve the
	// performance of the glue code generation component that will reach
	// levels of 90% of hand coded performance"): node-local transfers pass
	// by reference (one copy instead of pack+assemble) and the library
	// computes in place where legal, skipping the input-to-output copy.
	OptimizedBuffers bool
	// NodeSpeeds applies per-node CPU speed multipliers to the simulated
	// machine (heterogeneous architectures); missing entries default to 1.
	NodeSpeeds []float64
	// InputPeriod, when positive, paces the data source in real time:
	// data set i becomes available at virtual time i*InputPeriod, the
	// arrival pattern of a sensor front-end. Sources that cannot keep up
	// (backpressure from the pipeline) accumulate overrun, reported in
	// Result.MaxOverrun.
	InputPeriod sim.Duration
	// Collector, when non-nil, receives structured trace spans for the
	// whole run: per-thread function phases (recv/compute/send), per-port
	// transfer activity with byte counts, buffer-credit stalls, MPI
	// collective spans, and the sim kernel's process/wait events. One
	// collector serves one run. See package repro/internal/trace.
	Collector *trace.Collector
	// Faults, when non-nil and non-empty, installs a deterministic fault
	// injector on the simulated machine and switches the runtime into its
	// resilient mode: striped transfers retry with backoff (at the MPI
	// layer), data receives and credit waits use timeouts, and — with
	// Resilience.Degraded — transfer schedules re-sequence around stalled
	// peers. The plan is validated against the table's node count.
	Faults *fault.Plan
	// Resilience tunes the resilient mode's timeouts and overcommit budget;
	// zero fields take fault.Resilience defaults. Ignored without Faults.
	Resilience fault.Resilience
	// Shards requests conservative sharded execution of the simulation
	// (sim.Kernel.SetShards): the machine's nodes are partitioned into up
	// to Shards shards that advance concurrently on separate goroutines,
	// synchronising at lookahead windows derived from the platform's link
	// latencies. Results, traces, fault verdicts and dispatch counts are
	// byte-identical to the sequential kernel's — sharding buys wall-clock
	// speed, never different answers. Values <= 1 select the classic
	// sequential kernel. The request is a ceiling, not a promise: runs that
	// cannot shard soundly (shared-fabric platforms, Sequential mode, fewer
	// nodes than shards) silently fall back to fewer shards or one.
	Shards int
	// ShardWeights optionally biases the shard partitioner with per-node
	// load weights (higher = busier); the analytical twin's per-node busy
	// forecast (twin.ShardWeights) is the intended source. Missing or short
	// weights default to uniform. Ignored unless Shards > 1.
	ShardWeights []float64
	// Cancel, when non-nil, aborts the run as soon as the channel is closed:
	// the kernel polls it between dispatched events (sim.Kernel.SetCancel),
	// halts, and Run returns ErrCanceled instead of a result. The deferred
	// Kernel.Shutdown then releases every parked process goroutine, so a
	// canceled run leaks nothing and a fresh kernel afterwards produces
	// byte-identical results — the mid-run-abort contract the sage-serve
	// daemon's per-request deadlines rely on. Polling happens outside
	// virtual time, so arming cancellation changes no reported measurement,
	// not even Result.Dispatches.
	Cancel <-chan struct{}
	// CancelEvery is the dispatched-event interval between cancellation
	// polls. Zero selects sim.DefaultCancelEvery. Ignored without Cancel.
	CancelEvery int
}

// ErrCanceled is returned (wrapped) by Run when Options.Cancel aborted the
// run before completion. Test with errors.Is.
var ErrCanceled = errors.New("sagert: run canceled")

// DefaultDispatchOverhead is the table-dispatch cost used when Options does
// not override it (calibrated to a 1999-era RTOS task activation).
const DefaultDispatchOverhead = 25 * time.Microsecond

func (o *Options) withDefaults() Options {
	out := *o
	if out.Iterations < 1 {
		out.Iterations = 1
	}
	if out.ComputeIterations < 1 {
		out.ComputeIterations = 1
	}
	if out.ComputeIterations > out.Iterations {
		out.ComputeIterations = out.Iterations
	}
	if out.DispatchOverhead <= 0 {
		out.DispatchOverhead = DefaultDispatchOverhead
	}
	if out.BufferSlots < 1 {
		out.BufferSlots = 2
	}
	out.Resilience = out.Resilience.WithDefaults()
	return out
}

// Result reports an execution.
type Result struct {
	// Latencies[i] is data-set i's source-start to sink-complete time
	// (§3.3: "latency corresponds to the time from when the first data
	// leaves the data source to the time the final result is output to the
	// data sink").
	Latencies []sim.Duration
	// Period is the steady-state time between completed data sets (§3.3:
	// "a period is defined to be the time between input data sets").
	Period sim.Duration
	// Output is the first sink function's final data set from the last
	// compute iteration, assembled across sink threads (nil if the app has
	// no sink_matrix).
	Output *isspl.Matrix
	// Outputs holds the same per sink function name (applications may fan
	// out to several sinks).
	Outputs map[string]*isspl.Matrix
	// Elapsed is the total virtual time of the run.
	Elapsed sim.Time
	// MaxOverrun is the largest delay between a data set's scheduled
	// real-time arrival (Options.InputPeriod) and the moment the source
	// could actually begin processing it; zero when unpaced or keeping up.
	MaxOverrun sim.Duration
	// Dispatches is the number of kernel events the run executed — the
	// denominator benchmark harnesses use for events/sec and allocs/event.
	Dispatches uint64
	// NodeStats reports per-node busy time.
	NodeStats []NodeStat
}

// NodeStat summarises one node's activity.
type NodeStat struct {
	Node        int
	ComputeBusy sim.Duration
	CopyBusy    sim.Duration
	CommBusy    sim.Duration
	Utilization float64
}

// AvgLatency returns the mean latency across iterations.
func (r *Result) AvgLatency() sim.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, l := range r.Latencies {
		sum += l
	}
	return sum / sim.Duration(len(r.Latencies))
}

// tag packing: (buffer, srcThread, dstThread) -> user tag. Limits checked at
// runner construction.
const tagThreadLimit = 128

func dataTag(buf, srcThread, dstThread int) int {
	return ((buf*tagThreadLimit)+srcThread)*tagThreadLimit + dstThread
}

// credit tags live in a disjoint range above data tags.
func creditTag(buf, srcThread, dstThread int) int {
	return mpi.TagUserLimit/2 + dataTag(buf, srcThread, dstThread)
}

// Run executes the tables on a fresh simulated machine of the given
// platform.
func Run(tables *gluegen.Tables, pl machine.Platform, opts Options) (*Result, error) {
	o := opts.withDefaults()
	if err := tables.Verify(); err != nil {
		return nil, fmt.Errorf("sagert: refusing to run unverified tables: %w", err)
	}
	if pl.Name != tables.Platform {
		return nil, fmt.Errorf("sagert: tables were generated for platform %q, running on %q (regenerate the glue code)", tables.Platform, pl.Name)
	}
	for _, f := range tables.Functions {
		if f.Threads > tagThreadLimit {
			return nil, fmt.Errorf("sagert: function %q has %d threads, limit %d", f.Name, f.Threads, tagThreadLimit)
		}
	}
	if len(tables.Buffers)*tagThreadLimit*tagThreadLimit >= mpi.TagUserLimit/2 {
		return nil, fmt.Errorf("sagert: %d buffers exceed the tag space", len(tables.Buffers))
	}
	if !o.Faults.Empty() {
		if err := o.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("sagert: invalid fault plan: %w", err)
		}
		if err := o.Faults.CheckNodes(tables.NumNodes); err != nil {
			return nil, fmt.Errorf("sagert: fault plan does not fit the machine: %w", err)
		}
	}

	k := sim.NewKernel()
	// Release any process goroutines left parked by a failed or stopped run
	// (runner errors call Stop mid-execution); without this every failed run
	// leaks one goroutine per function thread.
	defer k.Shutdown()
	// Sharding must be decided before anything binds to the kernel: node
	// resources, channels and processes attach to their owning shard at
	// creation time.
	if n, domainOf, lookahead := planShards(tables, pl, &o); n > 1 {
		k.SetShards(n, domainOf, lookahead)
	}
	mach := machine.New(k, pl, tables.NumNodes)
	mach.SetNodeSpeeds(o.NodeSpeeds)
	mach.SetTrace(o.Collector)
	mach.SetFaults(o.Faults.NewInjector())
	world := mpi.NewWorld(mach)
	r := &runner{
		tables: tables, opts: o, mach: mach, world: world,
		sourceStart: make([]sim.Time, o.Iterations),
		sinkDone:    make([]sim.Time, o.Iterations),
		localQueues: map[localKey]*sim.Chan[*funclib.Block]{},
	}
	r.buildPlan()
	r.buildLocalQueues(k)
	r.collectOutput()
	if o.Sequential {
		r.iterBarrier = sim.NewBarrier(k, "iteration", len(r.plans))
	}
	r.spawn(k)
	if o.Cancel != nil {
		k.SetCancel(o.Cancel, o.CancelEvery)
	}
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("sagert: execution failed: %w", err)
	}
	if k.Canceled() {
		return nil, fmt.Errorf("%w at virtual time %v", ErrCanceled, k.Now())
	}
	if r.err != nil {
		return nil, r.err
	}
	mach.TraceNodeTotals()
	return r.result(k), nil
}
