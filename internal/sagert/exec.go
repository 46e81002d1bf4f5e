package sagert

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/funclib"
	"repro/internal/gluegen"
	"repro/internal/isspl"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// xferRef is one planned transfer seen from one side.
type xferRef struct {
	buf      *gluegen.BufferEntry
	x        gluegen.Transfer
	peerNode int
}

// portPlan is a port's per-thread execution plan.
type portPlan struct {
	entry  *gluegen.PortEntry
	region model.Region
	// xfers are incoming (for inputs) or outgoing (for outputs) transfers
	// touching this thread, in deterministic table order.
	xfers []xferRef
}

// threadPlan is the static plan of one function thread.
type threadPlan struct {
	fn       *gluegen.FuncEntry
	thread   int
	node     int
	impl     *funclib.Impl
	ins      []*portPlan
	outs     []*portPlan
	isSource bool
	isSink   bool
}

// localKey routes optimised node-local handoffs.
type localKey struct {
	buf, srcThread, dstThread int
}

type runner struct {
	tables *gluegen.Tables
	opts   Options
	mach   *machine.Machine
	world  *mpi.World

	plans []*threadPlan

	sourceStart []sim.Time
	sinkDone    []sim.Time

	output      *isspl.Matrix
	outputs     map[string]*isspl.Matrix // per sink-function name
	localQueues map[localKey]*sim.Chan[*funclib.Block]
	iterBarrier *sim.Barrier // non-nil in Sequential mode
	maxOverrun  sim.Duration

	// On a sharded kernel function threads execute concurrently (one
	// goroutine per shard), so the cross-thread endpoint bookkeeping —
	// iteration timestamps, overrun, the first failure — is mutex-guarded.
	// The locks are uncontended-cheap and touched at most a few times per
	// iteration, far off the per-event fast path.
	noteMu sync.Mutex // guards sourceStart, sinkDone, maxOverrun
	errMu  sync.Mutex // guards err
	sinkMu sync.Mutex // guards assembled sink matrices (replicated sinks overlap)
	failed atomic.Bool

	err error
}

// buildPlan expands the tables into per-thread plans.
func (r *runner) buildPlan() {
	t := r.tables
	for fi := range t.Functions {
		fe := &t.Functions[fi]
		impl, err := funclib.Lookup(fe.Kind)
		if err != nil {
			panic(err) // tables verified
		}
		for th := 0; th < fe.Threads; th++ {
			tp := &threadPlan{
				fn: fe, thread: th, node: fe.Nodes[th], impl: impl,
				isSource: len(fe.Ins) == 0, isSink: len(fe.Outs) == 0,
			}
			for pi := range fe.Ins {
				tp.ins = append(tp.ins, r.portPlan(&fe.Ins[pi], fe, th, true))
			}
			for pi := range fe.Outs {
				tp.outs = append(tp.outs, r.portPlan(&fe.Outs[pi], fe, th, false))
			}
			r.plans = append(r.plans, tp)
		}
	}
}

func (r *runner) portPlan(pe *gluegen.PortEntry, fe *gluegen.FuncEntry, thread int, isInput bool) *portPlan {
	region, err := model.Partition(pe.Striping, pe.Rows, pe.Cols, fe.Threads, thread)
	if err != nil {
		panic(err) // tables verified
	}
	pp := &portPlan{entry: pe, region: region}
	for _, bufID := range pe.Buffers {
		buf := &r.tables.Buffers[bufID]
		for _, x := range buf.Transfers {
			if isInput {
				if buf.DstFn != fe.ID || buf.DstPort != pe.Name || x.DstThread != thread {
					continue
				}
				src, _ := r.tables.Function(buf.SrcFn)
				pp.xfers = append(pp.xfers, xferRef{buf: buf, x: x, peerNode: src.Nodes[x.SrcThread]})
			} else {
				if buf.SrcFn != fe.ID || buf.SrcPort != pe.Name || x.SrcThread != thread {
					continue
				}
				dst, _ := r.tables.Function(buf.DstFn)
				pp.xfers = append(pp.xfers, xferRef{buf: buf, x: x, peerNode: dst.Nodes[x.DstThread]})
			}
		}
	}
	return pp
}

// collectOutput prepares the sink assembly target from the sink function's
// input port shape.
func (r *runner) collectOutput() {
	r.outputs = map[string]*isspl.Matrix{}
	for fi := range r.tables.Functions {
		fe := &r.tables.Functions[fi]
		if fe.Kind == "sink_matrix" && len(fe.Ins) == 1 {
			m := isspl.NewMatrix(fe.Ins[0].Rows, fe.Ins[0].Cols)
			r.outputs[fe.Name] = m
			if r.output == nil {
				r.output = m // first sink, in function-table order
			}
		}
	}
}

// localOptimised reports whether a transfer can use the optimised
// node-local handoff path.
func (r *runner) localOptimised(srcNode, dstNode int) bool {
	return r.opts.OptimizedBuffers && srcNode == dstNode
}

// ProcName names the simulated process running one function thread. Its
// trace track is trace.ProcTrack(ProcName(...), pid), which is how a
// collector's phase spans are attributed back to function threads.
func ProcName(app, fn string, thread int) string {
	return fmt.Sprintf("%s.%s[%d]", app, fn, thread)
}

// spawn launches every function thread on its mapped node's shard.
func (r *runner) spawn(k *sim.Kernel) {
	for _, tp := range r.plans {
		tp := tp
		k.SpawnOn(tp.node, ProcName(r.tables.AppName, tp.fn.Name, tp.thread), func(p *sim.Proc) {
			rank := r.world.Attach(tp.node, p)
			r.threadMain(tp, rank)
		})
	}
}

func (r *runner) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
		r.failed.Store(true)
		r.mach.K.Stop()
	}
	r.errMu.Unlock()
}

// buildLocalQueues pre-creates every optimised node-local handoff channel,
// before the kernel runs. Creating them lazily mid-run would mutate the
// shared map from concurrent shard goroutines; eager creation is free (a
// channel is inert until used) and changes nothing observable.
func (r *runner) buildLocalQueues(k *sim.Kernel) {
	if !r.opts.OptimizedBuffers {
		return
	}
	for bi := range r.tables.Buffers {
		buf := &r.tables.Buffers[bi]
		src, _ := r.tables.Function(buf.SrcFn)
		dst, _ := r.tables.Function(buf.DstFn)
		for _, x := range buf.Transfers {
			if src.Nodes[x.SrcThread] != dst.Nodes[x.DstThread] {
				continue
			}
			key := localKey{buf.ID, x.SrcThread, x.DstThread}
			if _, ok := r.localQueues[key]; !ok {
				r.localQueues[key] = sim.NewChanOn[*funclib.Block](k, src.Nodes[x.SrcThread],
					fmt.Sprintf("local b%d %d->%d", key.buf, key.srcThread, key.dstThread))
			}
		}
	}
}

func (r *runner) localQueue(key localKey) *sim.Chan[*funclib.Block] {
	q := r.localQueues[key]
	if q == nil {
		panic(fmt.Sprintf("sagert: no local queue for b%d %d->%d", key.buf, key.srcThread, key.dstThread))
	}
	return q
}

// threadMain is the per-thread iteration loop: receive/assemble, dispatch,
// compute, pack/send — with credit-based flow control.
func (r *runner) threadMain(tp *threadPlan, rank *mpi.Rank) {
	node := r.mach.Node(tp.node)
	// Structured tracing: the collector is nil-safe, but the track name and
	// per-transfer span labels are only built when tracing is on.
	tr := r.mach.Trace()
	var track string
	if tr.Enabled() {
		track = trace.ProcTrack(rank.Proc().Name(), rank.Proc().PID())
	}
	credits := map[localKey]int{}
	for _, pp := range tp.outs {
		for _, xr := range pp.xfers {
			credits[localKey{xr.buf.ID, xr.x.SrcThread, xr.x.DstThread}] = r.opts.BufferSlots
		}
	}
	inj := r.mach.Faults()
	// overcommit tracks emergency credit borrowing per transfer (resilient
	// mode only): a bounded per-run budget, so the pipeline depth can never
	// exceed BufferSlots + MaxCreditOvercommit.
	overcommit := map[localKey]int{}
	// Per-iteration working state, hoisted out of the loop and cleared each
	// pass so the steady-state iteration allocates no maps or contexts.
	inBlocks := make(map[string]*funclib.Block, len(tp.ins))
	outBlocks := make(map[string]*funclib.Block, len(tp.outs))
	ctx := &funclib.Context{
		FuncName: tp.fn.Name, Params: tp.fn.Params,
		Thread: tp.thread, Threads: tp.fn.Threads,
	}
	for iter := 0; iter < r.opts.Iterations && !r.failed.Load(); iter++ {
		compute := iter < r.opts.ComputeIterations

		if tp.isSource {
			if r.opts.InputPeriod > 0 {
				// Real-time pacing: data set iter arrives on schedule; if
				// the pipeline's backpressure held us past the arrival,
				// record the overrun.
				scheduled := sim.Time(0).Add(sim.Duration(iter) * r.opts.InputPeriod)
				if rank.Proc().Now() < scheduled {
					rank.Proc().SleepUntil(scheduled)
				} else {
					r.noteOverrun(rank.Proc().Now().Sub(scheduled))
				}
			}
			r.noteSourceStart(iter, rank.Proc().Now())
		}

		// --- receive phase: assemble input logical buffers -----------------
		recvStart := rank.Proc().Now()
		clear(inBlocks)
		for _, pp := range tp.ins {
			blk := funclib.NewBlock(pp.region)
			if !compute {
				blk.Data = nil // charge-only iterations carry no samples
			}
			for _, xr := range r.orderXfers(pp.xfers, rank.Proc().Now()) {
				key := localKey{xr.buf.ID, xr.x.SrcThread, xr.x.DstThread}
				xferStart := rank.Proc().Now()
				if r.localOptimised(xr.peerNode, tp.node) {
					// Optimised local handoff: single copy, no messaging
					// stack.
					got := r.localQueue(key).Recv(rank.Proc())
					node.Memcpy(rank.Proc(), xr.x.Bytes)
					if compute {
						copyRegion(blk, got, xr.x.Region)
					}
				} else {
					payload := r.recvData(rank, tp, track, xr)
					// Assemble into the function's private logical buffer:
					// the extra data access §3.4 attributes overhead to. A
					// region that lands contiguously in the buffer (full
					// buffer width) is received in place, zero-copy; only
					// strided regions (corner-turn tiles, column stripes)
					// pay the copy.
					if !contiguousIn(xr.x.Region, blk.Region) {
						node.Memcpy(rank.Proc(), xr.x.Bytes)
					}
					if compute {
						src := &funclib.Block{Region: xr.x.Region, Data: payload.Complex()}
						copyRegion(blk, src, xr.x.Region)
					}
				}
				if tr.Enabled() {
					tr.Xfer(trace.LayerSage, tp.node, track,
						fmt.Sprintf("recv b%d t%d", xr.buf.ID, xr.x.SrcThread),
						xr.x.Bytes, iter, xferStart, rank.Proc().Now())
				}
				// Return a pipelining credit to the producer.
				rank.Send(xr.peerNode, creditTag(xr.buf.ID, xr.x.SrcThread, xr.x.DstThread), mpi.Empty())
			}
			inBlocks[pp.entry.Name] = blk
		}
		if len(tp.ins) > 0 {
			tr.Phase(trace.LayerSage, tp.node, track, "recv", iter, recvStart, rank.Proc().Now())
		}

		// --- dispatch + compute --------------------------------------------
		compStart := rank.Proc().Now()
		node.ComputeTime(rank.Proc(), r.opts.DispatchOverhead)

		clear(outBlocks)
		for _, pp := range tp.outs {
			blk := funclib.NewBlock(pp.region)
			if !compute {
				blk.Data = nil
			}
			outBlocks[pp.entry.Name] = blk
		}
		ctx.Iteration = iter
		ctx.Sink = nil
		if tp.isSink && compute && iter == r.opts.ComputeIterations-1 {
			if target := r.outputs[tp.fn.Name]; target != nil {
				ctx.Sink = func(port string, b *funclib.Block) { r.storeSink(target, b) }
			}
		}
		cost := tp.impl.Cost(ctx, inBlocks, outBlocks)
		copyBytes := cost.CopyBytes
		if r.opts.OptimizedBuffers && !tp.isSource && !tp.isSink {
			// In-place computation where legal: the input-to-output copy
			// disappears.
			inBytes := 0
			for _, pp := range tp.ins {
				inBytes += pp.region.Elems() * pp.entry.ElemBytes
			}
			copyBytes -= inBytes
			if copyBytes < 0 {
				copyBytes = 0
			}
		}
		node.ComputeFlops(rank.Proc(), cost.Flops)
		node.Memcpy(rank.Proc(), copyBytes)
		if compute {
			if err := tp.impl.Compute(ctx, inBlocks, outBlocks); err != nil {
				r.fail(fmt.Errorf("sagert: %s thread %d iteration %d: %w", tp.fn.Name, tp.thread, iter, err))
				return
			}
		}
		tr.Phase(trace.LayerSage, tp.node, track, "compute", iter, compStart, rank.Proc().Now())

		// --- send phase ------------------------------------------------------
		sendStart := rank.Proc().Now()
		for _, pp := range tp.outs {
			blk := outBlocks[pp.entry.Name]
			for _, xr := range r.orderXfers(pp.xfers, rank.Proc().Now()) {
				key := localKey{xr.buf.ID, xr.x.SrcThread, xr.x.DstThread}
				if credits[key] == 0 {
					creditStart := rank.Proc().Now()
					if inj.Enabled() {
						r.awaitCredit(rank, tp, track, xr, overcommit)
					} else {
						rank.Recv(xr.peerNode, creditTag(xr.buf.ID, xr.x.SrcThread, xr.x.DstThread))
					}
					if tr.Enabled() && rank.Proc().Now() > creditStart {
						tr.Phase(trace.LayerSage, tp.node, track,
							fmt.Sprintf("credit b%d", xr.buf.ID),
							iter, creditStart, rank.Proc().Now())
					}
				} else {
					credits[key]--
				}
				xferStart := rank.Proc().Now()
				if r.localOptimised(tp.node, xr.peerNode) {
					var pass *funclib.Block
					if compute {
						pass = extractRegion(blk, xr.x.Region)
					} else {
						pass = &funclib.Block{Region: xr.x.Region}
					}
					r.localQueue(key).Send(pass)
					continue
				}
				// Pack the region out of the logical buffer; a region that
				// is contiguous in the buffer is sent in place, zero-copy.
				if !contiguousIn(xr.x.Region, blk.Region) {
					node.Memcpy(rank.Proc(), xr.x.Bytes)
				}
				var payload mpi.Payload
				if compute {
					payload = mpi.ComplexPayload(extractRegion(blk, xr.x.Region).Data)
				} else {
					payload = mpi.Payload{Bytes: xr.x.Bytes}
				}
				rank.Send(xr.peerNode, dataTag(xr.buf.ID, xr.x.SrcThread, xr.x.DstThread), payload)
				if tr.Enabled() {
					tr.Xfer(trace.LayerSage, tp.node, track,
						fmt.Sprintf("send b%d t%d", xr.buf.ID, xr.x.DstThread),
						xr.x.Bytes, iter, xferStart, rank.Proc().Now())
				}
			}
		}
		if len(tp.outs) > 0 {
			tr.Phase(trace.LayerSage, tp.node, track, "send", iter, sendStart, rank.Proc().Now())
		}

		if tp.isSink {
			r.noteSinkDone(iter, rank.Proc().Now())
		}
		if r.iterBarrier != nil {
			r.iterBarrier.Wait(rank.Proc())
		}
	}
}

// recvData receives one striped region. Without a fault injector it is a
// plain blocking Recv. In resilient mode it re-arms a timed receive until the
// data arrives: the message is guaranteed to come eventually (the MPI retry
// protocol forces delivery after its attempt budget), so the loop terminates;
// each expiry is recorded as a recv-timeout fault span on the thread's track.
func (r *runner) recvData(rank *mpi.Rank, tp *threadPlan, track string, xr xferRef) mpi.Payload {
	tag := dataTag(xr.buf.ID, xr.x.SrcThread, xr.x.DstThread)
	if !r.mach.Faults().Enabled() {
		return rank.Recv(xr.peerNode, tag)
	}
	tr := r.mach.Trace()
	for {
		start := rank.Proc().Now()
		payload, ok := rank.RecvTimeout(xr.peerNode, tag, r.opts.Resilience.RecvTimeout)
		if ok {
			return payload
		}
		tr.FaultSpanOn(tp.node, track,
			fmt.Sprintf("recv-timeout b%d t%d", xr.buf.ID, xr.x.SrcThread),
			start, rank.Proc().Now())
	}
}

// awaitCredit blocks until a pipelining credit for xr arrives, in resilient
// mode. Each timed-out wait is recorded; while the per-transfer overcommit
// budget lasts, a timeout is resolved by borrowing an emergency slot and
// proceeding without the credit — the credit stays in flight and satisfies a
// later wait instantly, so the pipeline depth overshoot is bounded by the
// budget and drains by itself.
func (r *runner) awaitCredit(rank *mpi.Rank, tp *threadPlan, track string, xr xferRef, overcommit map[localKey]int) {
	ctag := creditTag(xr.buf.ID, xr.x.SrcThread, xr.x.DstThread)
	key := localKey{xr.buf.ID, xr.x.SrcThread, xr.x.DstThread}
	res := r.opts.Resilience
	tr := r.mach.Trace()
	for {
		start := rank.Proc().Now()
		if _, ok := rank.RecvTimeout(xr.peerNode, ctag, res.CreditTimeout); ok {
			return
		}
		tr.FaultSpanOn(tp.node, track,
			fmt.Sprintf("credit-timeout b%d", xr.buf.ID), start, rank.Proc().Now())
		if overcommit[key] < res.MaxCreditOvercommit {
			overcommit[key]++
			tr.FaultPoint(tp.node,
				fmt.Sprintf("overcommit b%d %d->%d", xr.buf.ID, xr.x.SrcThread, xr.x.DstThread),
				rank.Proc().Now())
			return
		}
	}
}

// orderXfers returns a port's transfer schedule, re-sequenced in degraded
// mode: transfers whose peer node is currently inside a stall window move —
// stably — to the back, so healthy peers are serviced first and the stalled
// peer's transfer is attempted as late as possible (by which time it may have
// restarted). Without Resilience.Degraded (or without faults) the table
// order is returned untouched.
func (r *runner) orderXfers(xfers []xferRef, now sim.Time) []xferRef {
	inj := r.mach.Faults()
	if !r.opts.Resilience.Degraded || !inj.Enabled() {
		return xfers
	}
	stalled := 0
	for i := range xfers {
		if inj.NodeStalled(xfers[i].peerNode, now) {
			stalled++
		}
	}
	if stalled == 0 || stalled == len(xfers) {
		return xfers
	}
	out := make([]xferRef, 0, len(xfers))
	tail := make([]xferRef, 0, stalled)
	for _, xr := range xfers {
		if inj.NodeStalled(xr.peerNode, now) {
			tail = append(tail, xr)
		} else {
			out = append(out, xr)
		}
	}
	return append(out, tail...)
}

func (r *runner) noteSourceStart(iter int, t sim.Time) {
	r.noteMu.Lock()
	if r.sourceStart[iter] == 0 || t < r.sourceStart[iter] {
		r.sourceStart[iter] = t
	}
	r.noteMu.Unlock()
}

func (r *runner) noteSinkDone(iter int, t sim.Time) {
	r.noteMu.Lock()
	if t > r.sinkDone[iter] {
		r.sinkDone[iter] = t
	}
	r.noteMu.Unlock()
}

func (r *runner) noteOverrun(over sim.Duration) {
	r.noteMu.Lock()
	if over > r.maxOverrun {
		r.maxOverrun = over
	}
	r.noteMu.Unlock()
}

// storeSink writes a sink thread's block into the assembled output matrix.
func (r *runner) storeSink(target *isspl.Matrix, b *funclib.Block) {
	if b.Data == nil {
		return
	}
	// Replicated sink threads cover overlapping regions with identical
	// data; under the sharded kernel they can run concurrently, so the
	// assembly copy must be serialized. Non-overlapping writes pay an
	// uncontended lock a few times per iteration — off the hot path.
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	for i := 0; i < b.Region.Rows; i++ {
		row := b.Region.R0 + i
		copy(target.Data[row*target.Cols+b.Region.C0:], b.Data[i*b.Region.Cols:(i+1)*b.Region.Cols])
	}
}

// contiguousIn reports whether region reg occupies a contiguous byte range
// of a block covering blockReg: it must span the block's full width. Such
// regions can be sent from or received into the logical buffer without a
// marshalling copy.
func contiguousIn(reg, blockReg model.Region) bool {
	return reg.C0 == blockReg.C0 && reg.Cols == blockReg.Cols
}

// copyRegion copies region reg from src into dst; both blocks must contain
// reg.
func copyRegion(dst, src *funclib.Block, reg model.Region) {
	for i := 0; i < reg.Rows; i++ {
		row := reg.R0 + i
		dstOff := (row-dst.Region.R0)*dst.Region.Cols + (reg.C0 - dst.Region.C0)
		srcOff := (row-src.Region.R0)*src.Region.Cols + (reg.C0 - src.Region.C0)
		copy(dst.Data[dstOff:dstOff+reg.Cols], src.Data[srcOff:srcOff+reg.Cols])
	}
}

// extractRegion returns a dense copy of region reg from blk.
func extractRegion(blk *funclib.Block, reg model.Region) *funclib.Block {
	out := funclib.NewBlock(reg)
	copyRegion(out, blk, reg)
	return out
}

// result assembles the Result after the kernel drains.
func (r *runner) result(k *sim.Kernel) *Result {
	res := &Result{
		Output: r.output, Outputs: r.outputs, Elapsed: k.Now(),
		MaxOverrun: r.maxOverrun, Dispatches: k.Dispatched(),
	}
	for i := 0; i < r.opts.Iterations; i++ {
		res.Latencies = append(res.Latencies, r.sinkDone[i].Sub(r.sourceStart[i]))
	}
	if r.opts.Iterations > 1 {
		res.Period = r.sinkDone[r.opts.Iterations-1].Sub(r.sinkDone[0]) / sim.Duration(r.opts.Iterations-1)
	} else {
		res.Period = res.Latencies[0]
	}
	for _, nd := range r.mach.Nodes() {
		res.NodeStats = append(res.NodeStats, NodeStat{
			Node: nd.ID, ComputeBusy: nd.ComputeBusy, CopyBusy: nd.CopyBusy,
			CommBusy: nd.CommBusy, Utilization: nd.Utilization(k.Now()),
		})
	}
	return res
}
