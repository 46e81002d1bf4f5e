package sagert

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/trace"
)

// genTablesMercury generates verified tables for the crossbar platform — the
// preset without a shared fabric, which is what makes a run shardable.
func genTablesMercury(t *testing.T, build func(n, threads int) (*model.App, error), n, threads, nodes int) *gluegen.Tables {
	t.Helper()
	app, err := build(n, threads)
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := model.SpreadParallel(app, nodes)
	if err != nil {
		t.Fatal(err)
	}
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.Mercury(), NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return out.Tables
}

// chromeBytes serialises a collector to Chrome trace JSON — the bytes a user
// would actually write to disk, and therefore the strictest practical
// definition of "the trace is identical".
func chromeBytes(t *testing.T, c *trace.Collector) []byte {
	t.Helper()
	tr := trace.NewTrace()
	tr.Add(c)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSameResult checks every observable field of a Result bitwise.
func assertSameResult(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if got.Elapsed != ref.Elapsed {
		t.Errorf("%s: elapsed %v != %v", label, got.Elapsed, ref.Elapsed)
	}
	if got.Dispatches != ref.Dispatches {
		t.Errorf("%s: dispatches %d != %d", label, got.Dispatches, ref.Dispatches)
	}
	if got.Period != ref.Period {
		t.Errorf("%s: period %v != %v", label, got.Period, ref.Period)
	}
	if got.MaxOverrun != ref.MaxOverrun {
		t.Errorf("%s: max overrun %v != %v", label, got.MaxOverrun, ref.MaxOverrun)
	}
	if !reflect.DeepEqual(got.Latencies, ref.Latencies) {
		t.Errorf("%s: latencies diverge:\n got %v\nwant %v", label, got.Latencies, ref.Latencies)
	}
	if !reflect.DeepEqual(got.NodeStats, ref.NodeStats) {
		t.Errorf("%s: node stats diverge:\n got %+v\nwant %+v", label, got.NodeStats, ref.NodeStats)
	}
	if (got.Output == nil) != (ref.Output == nil) {
		t.Fatalf("%s: output presence differs", label)
	}
	if got.Output != nil && !reflect.DeepEqual(got.Output.Data, ref.Output.Data) {
		t.Errorf("%s: output samples differ bitwise", label)
	}
}

// TestShardedRunByteIdentical is the runtime-level contract of the sharded
// kernel: for every shard count, a pipelined run on the crossbar platform
// reproduces the sequential run's results, timings, dispatch count and full
// structured trace byte for byte.
func TestShardedRunByteIdentical(t *testing.T) {
	const n = 32
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"pipelined", Options{Iterations: 4}},
		{"optimized", Options{Iterations: 3, OptimizedBuffers: true}},
		{"paced", Options{Iterations: 4, InputPeriod: 50 * time.Microsecond}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tb := genTablesMercury(t, apps.FFT2D, n, 8, 8)
			refCol := trace.New("ref")
			refOpts := tc.opts
			refOpts.Collector = refCol
			ref, err := Run(tb, platforms.Mercury(), refOpts)
			if err != nil {
				t.Fatal(err)
			}
			refTrace := chromeBytes(t, refCol)
			for _, shards := range []int{2, 3, 8} {
				col := trace.New("ref")
				o := tc.opts
				o.Collector = col
				o.Shards = shards
				got, err := Run(tb, platforms.Mercury(), o)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				assertSameResult(t, fmt.Sprintf("shards=%d", shards), ref, got)
				if !bytes.Equal(refTrace, chromeBytes(t, col)) {
					t.Errorf("shards=%d: chrome trace differs from sequential", shards)
				}
			}
		})
	}
}

// TestShardedFaultedRunByteIdentical: the deterministic fault injector and
// the resilient runtime produce identical verdicts, recoveries and fault
// traces on the sharded kernel.
func TestShardedFaultedRunByteIdentical(t *testing.T) {
	const n = 32
	tb := genTablesMercury(t, apps.CornerTurn, n, 4, 4)
	run := func(shards int) (*Result, *trace.Collector) {
		col := trace.New("faulted")
		res, err := Run(tb, platforms.Mercury(), Options{
			Iterations: 3,
			Faults:     stressPlan(),
			Resilience: fault.Resilience{Degraded: true},
			Collector:  col,
			Shards:     shards,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res, col
	}
	ref, refCol := run(0)
	refTrace := chromeBytes(t, refCol)
	for _, shards := range []int{2, 4} {
		got, col := run(shards)
		assertSameResult(t, fmt.Sprintf("shards=%d", shards), ref, got)
		if !reflect.DeepEqual(refCol.Faults(), col.Faults()) {
			t.Errorf("shards=%d: fault verdicts diverge:\n got %+v\nwant %+v", shards, col.Faults(), refCol.Faults())
		}
		if !bytes.Equal(refTrace, chromeBytes(t, col)) {
			t.Errorf("shards=%d: chrome trace differs from sequential", shards)
		}
	}
}

// TestShardedWeightsOnlySteerThePartition: load weights bias where the cuts
// land but can never change an answer.
func TestShardedWeightsOnlySteerThePartition(t *testing.T) {
	const n = 32
	tb := genTablesMercury(t, apps.FFT2D, n, 4, 8)
	ref, err := Run(tb, platforms.Mercury(), Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(tb, platforms.Mercury(), Options{
		Iterations:   2,
		Shards:       4,
		ShardWeights: []float64{8, 1, 1, 1, 1, 1, 1, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "weighted", ref, got)
}

// TestShardedRequestFallsBackSoundly: configurations that cannot shard
// (shared-fabric platform, Sequential mode) accept a Shards request and
// silently run on one shard, unchanged.
func TestShardedRequestFallsBackSoundly(t *testing.T) {
	const n = 32
	t.Run("fabric", func(t *testing.T) {
		tb := genTables(t, apps.FFT2D, n, 4, 4)
		ref, err := Run(tb, platforms.CSPI(), Options{Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(tb, platforms.CSPI(), Options{Iterations: 2, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "fabric", ref, got)
	})
	t.Run("sequential", func(t *testing.T) {
		tb := genTablesMercury(t, apps.FFT2D, n, 4, 4)
		ref, err := Run(tb, platforms.Mercury(), Options{Iterations: 2, Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(tb, platforms.Mercury(), Options{Iterations: 2, Sequential: true, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "sequential", ref, got)
	})
}
