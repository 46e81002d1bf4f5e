package viz

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runTraced executes a traced corner turn and returns the Visualizer trace
// and result.
func runTraced(t *testing.T) (*Trace, *sagert.Result) {
	t.Helper()
	app, err := apps.CornerTurn(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	mapping, _ := model.SpreadParallel(app, 4)
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	col := trace.New("viz")
	res, err := sagert.Run(out.Tables, platforms.CSPI(), sagert.Options{Iterations: 3, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	return FromCollector(col, out.Tables), res
}

func TestCollectorGathersEvents(t *testing.T) {
	trace, _ := runTraced(t)
	if len(trace.Events) == 0 {
		t.Fatal("no events collected")
	}
	lo, hi := trace.Span()
	if hi <= lo {
		t.Fatalf("span = [%v, %v]", lo, hi)
	}
}

func TestBreakdownCoversAllFunctions(t *testing.T) {
	trace, _ := runTraced(t)
	bd := trace.Breakdown()
	names := map[string]bool{}
	for _, b := range bd {
		names[b.Fn] = true
		if b.Total() <= 0 {
			t.Fatalf("function %s has zero instrumented time", b.Fn)
		}
	}
	for _, want := range []string{"source", "ingest", "turn", "sink"} {
		if !names[want] {
			t.Fatalf("breakdown missing %s: %v", want, names)
		}
	}
	// Sorted by name.
	for i := 1; i < len(bd); i++ {
		if bd[i].Fn < bd[i-1].Fn {
			t.Fatal("breakdown not sorted")
		}
	}
}

func TestBottlenecksRankedAndDiagnosed(t *testing.T) {
	trace, _ := runTraced(t)
	bns := trace.Bottlenecks()
	if len(bns) == 0 {
		t.Fatal("no bottlenecks reported")
	}
	for i := 1; i < len(bns); i++ {
		if bns[i].Share > bns[i-1].Share {
			t.Fatal("bottlenecks not ranked by compute share")
		}
	}
	var shareSum float64
	for _, b := range bns {
		shareSum += b.Share
		if b.Diagnosis == "" {
			t.Fatalf("missing diagnosis for %s", b.Fn)
		}
	}
	if shareSum < 0.99 || shareSum > 1.01 {
		t.Fatalf("compute shares sum to %v", shareSum)
	}
	// The sink in a corner turn waits on everything upstream: it must be
	// diagnosed as starved.
	for _, b := range bns {
		if b.Fn == "sink" && !strings.Contains(b.Diagnosis, "starved") {
			t.Fatalf("sink diagnosis = %q (wait share %.2f)", b.Diagnosis, b.WaitShare)
		}
	}
}

func TestCheckLatencies(t *testing.T) {
	lats := []sim.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	v := CheckLatencies(lats, 2*time.Millisecond)
	if len(v) != 1 || v[0].Iteration != 1 || v[0].Latency != 3*time.Millisecond {
		t.Fatalf("violations = %+v", v)
	}
	if len(CheckLatencies(lats, 10*time.Millisecond)) != 0 {
		t.Fatal("phantom violations")
	}
}

func TestLatencyViolationsFromRealRun(t *testing.T) {
	_, res := runTraced(t)
	tight := res.AvgLatency() / 2
	if len(CheckLatencies(res.Latencies, tight)) == 0 {
		t.Fatal("expected violations under a tight threshold")
	}
}

func TestGanttRendering(t *testing.T) {
	trace, _ := runTraced(t)
	var buf bytes.Buffer
	if err := trace.Gantt(&buf, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "timeline") {
		t.Fatal("missing header")
	}
	for _, want := range []string{"source[0]", "ingest[0]", "ingest[3]", "turn[2]", "sink[0]", "C"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 1 header + 1 source + 4 ingest + 4 turn + 1 sink = 11.
	if len(lines) != 11 {
		t.Fatalf("gantt has %d lines:\n%s", len(lines), out)
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Trace{}).Gantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no probe events") {
		t.Fatal("empty trace not reported")
	}
}

func TestReport(t *testing.T) {
	trace, _ := runTraced(t)
	var buf bytes.Buffer
	if err := trace.Report(&buf, 50); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Visualizer report", "phase totals", "bottleneck analysis", "timeline"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	trace, _ := runTraced(t)
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(trace.Events)+1 {
		t.Fatalf("csv has %d lines for %d events", len(lines), len(trace.Events))
	}
	if lines[0] != "fn,name,thread,node,iteration,phase,start_ns,end_ns" {
		t.Fatalf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if len(strings.Split(l, ",")) != 8 {
			t.Fatalf("bad csv line %q", l)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	trace, _ := runTraced(t)
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(trace.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.Events), len(trace.Events))
	}
	for i := range got.Events {
		if got.Events[i] != trace.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, got.Events[i], trace.Events[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	for _, bad := range []string{
		"1,f,0,0,0,compute,10",        // too few fields
		"x,f,0,0,0,compute,10,20",     // bad fn
		"1,f,a,0,0,compute,10,20",     // bad thread
		"1,f,0,0,0,compute,ten,20",    // bad start
		"1,f,0,0,0,compute,10,twenty", // bad end
	} {
		if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	// Header-only and empty are fine.
	if tr, err := ReadCSV(strings.NewReader("fn,name,thread,node,iteration,phase,start_ns,end_ns\n")); err != nil || len(tr.Events) != 0 {
		t.Fatalf("header-only: %v %v", tr, err)
	}
}

func TestWriteSVG(t *testing.T) {
	trace, _ := runTraced(t)
	var buf bytes.Buffer
	if err := trace.WriteSVG(&buf, 800); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "ingest[0]", "turn[3]", "compute", "#219ebc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	// Every event produced a rect with a tooltip.
	if got := strings.Count(out, "<title>"); got != len(trace.Events) {
		t.Fatalf("svg has %d tooltips for %d events", got, len(trace.Events))
	}
	// Narrow widths are clamped, not broken.
	var small bytes.Buffer
	if err := trace.WriteSVG(&small, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(small.String(), "<svg") {
		t.Fatal("clamped svg broken")
	}
}

func TestXMLEscape(t *testing.T) {
	if got := xmlEscape(`a<b>&"c`); got != "a&lt;b&gt;&amp;&quot;c" {
		t.Fatalf("escape = %q", got)
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape("plain") != "plain" {
		t.Fatal("plain escaped")
	}
	if csvEscape(`a,b`) != `"a,b"` {
		t.Fatal("comma not quoted")
	}
	if csvEscape(`a"b`) != `"a""b"` {
		t.Fatal("quote not doubled")
	}
}
