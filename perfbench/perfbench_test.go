package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so tail must sort
		}
		return s
	}
	for _, c := range []struct {
		n         int
		wantPct   float64
		wantValue float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 95, 950}, // 999 * 1% = 9.99 samples beyond p99: not enough
		{200, 95, 190},
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10},
		{19, 100, 19}, // no percentile has ten beyond it: the maximum
		{1, 100, 1},
	} {
		v, p, n := tail(seq(c.n))
		if p != c.wantPct || v != c.wantValue || n != c.n {
			t.Errorf("tail of %d samples = (%v, p%v, n=%d), want (%v, p%v, n=%d)", c.n, v, p, n, c.wantValue, c.wantPct, c.n)
		}
	}
	if v, p, n := tail(nil); v != 0 || p != 0 || n != 0 {
		t.Errorf("tail(nil) = %v, %v, %d", v, p, n)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/funclib.NewBlock"}, "rt_alloc"},
		{[]string{"runtime.mallocgc", "repro/internal/sagert.(*runner).recv"}, "rt_alloc"},
		{[]string{"runtime.memmove", "repro/internal/codegen/rtl.copyRegion"}, "rt_copy"},
		{[]string{"runtime.selectgo", "repro/internal/sim.(*Proc).yield"}, "rt_sched"},
		{[]string{"runtime.casgstatus", "runtime.gopark"}, "rt_sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "rt_gc"},
		{[]string{"runtime.(*sweepLocked).sweep"}, "rt_gc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "repro/internal/serve.(*respCache).get"}, "rt_other"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "net/http.(*conn).serve"}, "other"},
		{[]string{"repro/internal/isspl.fftStridedInternal", "repro/internal/funclib.fftCols"}, "isspl"},
		{[]string{"math.Sincos", "repro/internal/isspl.twiddles"}, "isspl"},
		{[]string{"repro/internal/codegen/rtl.(*exec).threadMain"}, "rtl"},
		{[]string{"repro/internal/sim/shard.Partition"}, "sim"},
		{[]string{"repro/internal/experiments.BuildApp"}, "other"},
		{[]string{"encoding/json.Marshal", "main.emit"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// protoField appends one protobuf field: a varint or length-delimited bytes.
func protoField(dst []byte, num int, v any) []byte {
	switch x := v.(type) {
	case uint64:
		dst = binary.AppendUvarint(dst, uint64(num)<<3)
		return binary.AppendUvarint(dst, x)
	case []byte:
		dst = binary.AppendUvarint(dst, uint64(num)<<3|2)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...)
	}
	panic("unsupported field")
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestCPUSplitSyntheticProfile encodes a small profile.proto by hand, the
// way runtime/pprof lays it out, and checks the split: an inlined runtime
// leaf is charged to the runtime, module frames by the innermost one, and
// shares are weighted by CPU time.
func TestCPUSplitSyntheticProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.memclrNoHeapPointers", "repro/internal/funclib.NewBlock",
		"repro/internal/isspl.FFTRows", "repro/internal/sim.(*Kernel).Run", "runtime.selectgo"}
	var p []byte
	for _, s := range strs {
		p = protoField(p, 6, []byte(s))
	}
	for id := uint64(1); id <= 5; id++ { // function id i names strs[4+i]
		var f []byte
		f = protoField(f, 1, id)
		f = protoField(f, 2, id+4)
		p = protoField(p, 5, f)
	}
	line := func(fn uint64) []byte { return protoField(nil, 1, fn) }
	// Location 1 is memclr inlined into NewBlock, lines innermost first;
	// locations 2, 3 and 4 hold FFTRows, Kernel.Run and selectgo.
	loc := func(id uint64, fns ...uint64) []byte {
		l := protoField(nil, 1, id)
		for _, fn := range fns {
			l = protoField(l, 4, line(fn))
		}
		return l
	}
	p = protoField(p, 4, loc(1, 1, 2))
	p = protoField(p, 4, loc(2, 3))
	p = protoField(p, 4, loc(3, 4))
	p = protoField(p, 4, loc(4, 5))
	sample := func(ns uint64, locs ...uint64) []byte {
		s := protoField(nil, 1, packed(locs...))
		return protoField(s, 2, packed(1, ns))
	}
	p = protoField(p, 2, sample(60, 1, 3)) // memclr <- NewBlock <- sim
	p = protoField(p, 2, sample(30, 2, 3)) // isspl <- sim
	p = protoField(p, 2, sample(10, 4, 3)) // selectgo <- sim
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || len(samples[0].stack) != 3 || samples[0].stack[0] != "runtime.memclrNoHeapPointers" {
		t.Fatalf("decoded samples %+v", samples)
	}
	split := cpuSplit(samples)
	want := map[string]float64{"rt_alloc": 0.6, "isspl": 0.3, "rt_sched": 0.1}
	var sum float64
	for b, v := range split {
		sum += v
		if math.Abs(v-want[b]) > 1e-12 {
			t.Errorf("cpu.%s = %v, want %v", b, v, want[b])
		}
	}
	if math.Abs(sum-1) > 1e-12 || len(split) != len(cpuBuckets) {
		t.Errorf("split has %d buckets summing to %v", len(split), sum)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestMixIsSeeded(t *testing.T) {
	stream := func(seed int64) []byte {
		var b []byte
		for _, q := range genMix(seed, 0, 500) {
			b = append(append(append(b, q.cat...), ' '), q.body...)
		}
		for _, d := range arrivals(seed, 0, 500, serveRate) {
			b = binary.AppendVarint(b, int64(d))
		}
		return b
	}
	a, b := stream(7), stream(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two request streams")
	}
	if bytes.Equal(a, stream(8)) {
		t.Fatal("different seeds gave the same request stream")
	}
	cats := map[string]int{}
	keys := map[string]bool{}
	for _, q := range genMix(7, 0, 2000) {
		cats[q.cat]++
		if q.cat != "hit" {
			if keys[string(q.body)] {
				t.Fatalf("fresh %s request repeats a key: %s", q.cat, q.body)
			}
			keys[string(q.body)] = true
		}
	}
	for _, m := range mixBlock {
		if cats[m.cat] != 10*m.count {
			t.Errorf("2000 requests hold %d %s requests, want %d", cats[m.cat], m.cat, 10*m.count)
		}
	}
}

func TestServeMixShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon for a few seconds")
	}
	r, err := runServeMix(&config{workload: "serve-mix", seed: 3, seconds: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || len(r.problems) > 0 || r.attempted == 0 {
		t.Fatalf("failed %d of %d: %v", r.failed, r.attempted, r.problems)
	}
	for _, d := range metricDefs {
		if d.endToEnd && d.name != "peak_rss_mb" && r.values[d.name] <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, r.values[d.name])
		}
	}

	// The traced run through the command: exit 0 and failed_frac 0.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // spans and profile land here
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out, errw bytes.Buffer
	if code := cliMain([]string{"--workload", "serve-mix", "--seed", "3", "--seconds", "3", "--trace", "1"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	res := lastResult(t, out.String())
	var frac struct{ Value float64 }
	if err := json.Unmarshal(res.Metrics["failed_frac"], &frac); err != nil || frac.Value != 0 || !res.Correct {
		t.Fatalf("failed_frac %s, correct %v", res.Metrics["failed_frac"], res.Correct)
	}
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]json.RawMessage
}

// lastResult decodes the result line, the last line of standard output.
func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFailedCheckExitsNonZero: a workload whose output check fails still
// prints its result, marked incorrect, and the command exits 1.
func TestFailedCheckExitsNonZero(t *testing.T) {
	workloads["broken"] = func(*config) (*report, error) {
		r := newReport()
		layerDefaults(r)
		for _, d := range metricDefs {
			r.set(d.name, 1)
		}
		r.attempted = 1
		r.check(false, "output differs")
		return r, nil
	}
	defer delete(workloads, "broken")
	var out, errw bytes.Buffer
	if code := cliMain([]string{"--workload", "broken", "--seconds", "1"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	res := lastResult(t, out.String())
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("result %+v, want incorrect with one failure", res)
	}
	if code := cliMain([]string{"--workload", "nope"}, &out, &errw); code != 2 {
		t.Errorf("unknown workload exit %d, want 2", code)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []m
	for _, d := range metricDefs {
		if d.endToEnd {
			e2e = append(e2e, m{d.name, d.unit})
		} else {
			layer = append(layer, m{d.name, d.unit})
		}
	}
	if !slices.Equal(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end in BENCHMARK.json %v, command prints %v", spec.EndToEnd, e2e)
	}
	if !slices.Equal(spec.PerLayer, layer) {
		t.Errorf("per_layer in BENCHMARK.json %v, command prints %v", spec.PerLayer, layer)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the command lacks", w.Name)
		}
	}
}
