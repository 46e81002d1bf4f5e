// Package viz reproduces the SAGE Visualizer (§1.1): "a configurable
// instrumentation package that enables the designer to visualize the
// execution of the application through a variety of graphical displays that
// are fed by probes placed within the generated code. The Visualizer allows
// the designer to configure the instrumentation probes to measure
// application performance, and search for problems in the system, such as
// bottlenecks or violated latency thresholds."
//
// The probes are the SAGE runtime's per-thread recv/compute/send phase spans
// in a run's trace.Collector; FromCollector turns them into probe events and
// this package renders text displays: an ASCII Gantt timeline per function
// thread, per-function phase breakdowns, a bottleneck ranking, latency
// threshold checks, and CSV export for external tooling.
package viz

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/gluegen"
	"repro/internal/sagert"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newLineScanner wraps bufio.Scanner with a generous buffer for long traces.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return sc
}

// Event is one probed phase of a function thread's iteration.
type Event struct {
	Fn     int
	FnName string
	Thread int
	Node   int
	Iter   int
	Phase  string // "recv", "compute", "send"
	Start  sim.Time
	End    sim.Time
}

// Trace is a collected set of runtime probe events.
type Trace struct {
	Events []Event
}

// FromCollector builds the probe events of a sagert run of the given tables
// from the run's collector: every function thread's recv, compute and send
// phase spans, in recording order.
func FromCollector(c *trace.Collector, t *gluegen.Tables) *Trace {
	threads := map[string]Event{} // by process name, see sagert.ProcName
	for _, fe := range t.Functions {
		for th := 0; th < fe.Threads; th++ {
			threads[sagert.ProcName(t.AppName, fe.Name, th)] = Event{Fn: fe.ID, FnName: fe.Name, Thread: th}
		}
	}
	out := &Trace{}
	for _, s := range c.Spans() {
		e, ok := threads[s.Track[:max(strings.LastIndex(s.Track, " #"), 0)]]
		if !ok || s.Layer != trace.LayerSage || (s.Name != "recv" && s.Name != "compute" && s.Name != "send") {
			continue
		}
		e.Node, e.Iter, e.Phase, e.Start, e.End = s.Node, s.Iter, s.Name, s.Start, s.End
		out.Events = append(out.Events, e)
	}
	return out
}

// Span reports the earliest start and latest end across all events.
func (t *Trace) Span() (sim.Time, sim.Time) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	lo, hi := t.Events[0].Start, t.Events[0].End
	for _, e := range t.Events[1:] {
		if e.Start < lo {
			lo = e.Start
		}
		if e.End > hi {
			hi = e.End
		}
	}
	return lo, hi
}

// PhaseBreakdown sums event durations per function and phase.
type PhaseBreakdown struct {
	Fn      string
	Compute sim.Duration
	Recv    sim.Duration
	Send    sim.Duration
}

// Total is the function's summed instrumented time.
func (p PhaseBreakdown) Total() sim.Duration { return p.Compute + p.Recv + p.Send }

// Breakdown aggregates the trace per function, sorted by function name.
func (t *Trace) Breakdown() []PhaseBreakdown {
	agg := map[string]*PhaseBreakdown{}
	for _, e := range t.Events {
		b, ok := agg[e.FnName]
		if !ok {
			b = &PhaseBreakdown{Fn: e.FnName}
			agg[e.FnName] = b
		}
		d := e.End.Sub(e.Start)
		switch e.Phase {
		case "compute":
			b.Compute += d
		case "recv":
			b.Recv += d
		case "send":
			b.Send += d
		}
	}
	out := make([]PhaseBreakdown, 0, len(agg))
	for _, b := range agg {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fn < out[j].Fn })
	return out
}

// Bottleneck is a diagnosis for one function.
type Bottleneck struct {
	Fn string
	// Share is the function's fraction of total instrumented compute time.
	Share float64
	// WaitShare is recv (blocked/assembly) time relative to the function's
	// own total, indicating starvation by upstream stages.
	WaitShare float64
	// Diagnosis is a one-line classification.
	Diagnosis string
}

// Bottlenecks ranks functions by compute share and classifies each: the
// "search for problems in the system" display.
func (t *Trace) Bottlenecks() []Bottleneck {
	bd := t.Breakdown()
	var totalCompute sim.Duration
	for _, b := range bd {
		totalCompute += b.Compute
	}
	var out []Bottleneck
	for _, b := range bd {
		bn := Bottleneck{Fn: b.Fn}
		if totalCompute > 0 {
			bn.Share = float64(b.Compute) / float64(totalCompute)
		}
		if b.Total() > 0 {
			bn.WaitShare = float64(b.Recv) / float64(b.Total())
		}
		switch {
		case bn.Share > 0.5:
			bn.Diagnosis = "compute bottleneck: dominates total processing time"
		case bn.WaitShare > 0.6:
			bn.Diagnosis = "starved: mostly waiting on upstream data"
		case float64(b.Send) > 0.5*float64(b.Total()):
			bn.Diagnosis = "send-bound: output path saturated"
		default:
			bn.Diagnosis = "balanced"
		}
		out = append(out, bn)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Fn < out[j].Fn
	})
	return out
}

// Violation is a data set whose latency exceeded the threshold.
type Violation struct {
	Iteration int
	Latency   sim.Duration
	Threshold sim.Duration
}

// CheckLatencies flags iterations whose latency exceeds the threshold (the
// Visualizer's "violated latency thresholds" display).
func CheckLatencies(latencies []sim.Duration, threshold sim.Duration) []Violation {
	var out []Violation
	for i, l := range latencies {
		if l > threshold {
			out = append(out, Violation{Iteration: i, Latency: l, Threshold: threshold})
		}
	}
	return out
}

// Gantt renders an ASCII timeline, one row per (function, thread), with
// phase characters: '.' idle, 'r' receiving/assembling, 'C' computing,
// 's' sending. width is the number of time columns.
func (t *Trace) Gantt(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	if len(t.Events) == 0 {
		_, err := fmt.Fprintln(w, "(no probe events)")
		return err
	}
	lo, hi := t.Span()
	span := hi.Sub(lo)
	if span <= 0 {
		span = 1
	}
	type rowKey struct {
		fn     int
		name   string
		thread int
	}
	rows := map[rowKey][]Event{}
	for _, e := range t.Events {
		k := rowKey{e.Fn, e.FnName, e.Thread}
		rows[k] = append(rows[k], e)
	}
	keys := make([]rowKey, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].fn != keys[j].fn {
			return keys[i].fn < keys[j].fn
		}
		return keys[i].thread < keys[j].thread
	})
	col := func(ts sim.Time) int {
		c := int(float64(ts.Sub(lo)) / float64(span) * float64(width))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	phaseChar := map[string]byte{"recv": 'r', "compute": 'C', "send": 's'}
	fmt.Fprintf(w, "timeline %v .. %v (%v)\n", lo, hi, span)
	for _, k := range keys {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, e := range rows[k] {
			c0, c1 := col(e.Start), col(e.End)
			ch := phaseChar[e.Phase]
			if ch == 0 {
				ch = '?'
			}
			for c := c0; c <= c1; c++ {
				// Compute wins over send wins over recv when events share
				// a column at this resolution.
				if line[c] == '.' || line[c] == 'r' || (line[c] == 's' && ch == 'C') {
					line[c] = ch
				}
			}
		}
		fmt.Fprintf(w, "%-24s |%s|\n", fmt.Sprintf("%s[%d] n%d", k.name, k.thread, firstNode(rows[k])), line)
	}
	return nil
}

func firstNode(events []Event) int {
	if len(events) == 0 {
		return -1
	}
	return events[0].Node
}

// Report writes the full Visualizer text report: breakdown, bottlenecks and
// Gantt chart.
func (t *Trace) Report(w io.Writer, width int) error {
	fmt.Fprintln(w, "== SAGE Visualizer report ==")
	fmt.Fprintln(w, "\n-- per-function phase totals --")
	for _, b := range t.Breakdown() {
		fmt.Fprintf(w, "%-16s compute=%-14v recv=%-14v send=%-14v\n", b.Fn, b.Compute, b.Recv, b.Send)
	}
	fmt.Fprintln(w, "\n-- bottleneck analysis --")
	for _, bn := range t.Bottlenecks() {
		fmt.Fprintf(w, "%-16s compute-share=%5.1f%% wait-share=%5.1f%%  %s\n",
			bn.Fn, 100*bn.Share, 100*bn.WaitShare, bn.Diagnosis)
	}
	fmt.Fprintln(w, "\n-- timeline --")
	return t.Gantt(w, width)
}

// WriteCSV exports the raw events (one per line) for external tools.
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "fn,name,thread,node,iteration,phase,start_ns,end_ns"); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%s,%d,%d\n",
			e.Fn, csvEscape(e.FnName), e.Thread, e.Node, e.Iter, e.Phase, int64(e.Start), int64(e.End)); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// ReadCSV parses a trace previously exported with WriteCSV. Function names
// containing commas or quotes are not round-tripped (the runtime never
// produces them); a malformed line yields an error.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := newLineScanner(r)
	t := &Trace{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if strings.HasPrefix(line, "fn,") {
				continue // header
			}
		}
		parts := strings.Split(line, ",")
		if len(parts) != 8 {
			return nil, fmt.Errorf("viz: bad trace line %q", line)
		}
		var e Event
		var start, end int64
		if _, err := fmt.Sscanf(parts[0], "%d", &e.Fn); err != nil {
			return nil, fmt.Errorf("viz: bad fn id in %q", line)
		}
		e.FnName = parts[1]
		for i, dst := range []*int{&e.Thread, &e.Node, &e.Iter} {
			if _, err := fmt.Sscanf(parts[2+i], "%d", dst); err != nil {
				return nil, fmt.Errorf("viz: bad field %d in %q", 2+i, line)
			}
		}
		e.Phase = parts[5]
		if _, err := fmt.Sscanf(parts[6], "%d", &start); err != nil {
			return nil, fmt.Errorf("viz: bad start in %q", line)
		}
		if _, err := fmt.Sscanf(parts[7], "%d", &end); err != nil {
			return nil, fmt.Errorf("viz: bad end in %q", line)
		}
		e.Start, e.End = sim.Time(start), sim.Time(end)
		t.Events = append(t.Events, e)
	}
	return t, sc.Err()
}
