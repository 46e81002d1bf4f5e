package twin

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/sim"
)

// On a single node with optimised buffers every hand-off is a local memory
// copy and no messaging-stack call remains: the prediction must show zero
// wire/stack time, and the machine is one serial processor. (Without the
// optimisation, local messages still pay the receive-overhead stack cost —
// the DES charges it as CommBusy, and so does the twin; that equality is
// pinned by TestNodeAccountingMatchesDESExactly.)
func TestDegenerateSingleNode(t *testing.T) {
	pl := platforms.CSPI()
	prog, err := core.Build(core.Spec{App: "fft2d", N: 64, Threads: 1, Platform: pl, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(prog.Tables(), pl)
	if err != nil {
		t.Fatal(err)
	}
	pred := ev.Predict(Options{Iterations: 2, OptimizedBuffers: true})
	if len(pred.Nodes) != 1 {
		t.Fatalf("single-node prediction has %d nodes", len(pred.Nodes))
	}
	if pred.Nodes[0].Comm != 0 {
		t.Errorf("single node spent %v on the wire", pred.Nodes[0].Comm)
	}
	if pred.Elapsed <= 0 || pred.Nodes[0].Compute <= 0 || pred.Nodes[0].Copy <= 0 {
		t.Errorf("degenerate prediction incomplete: %+v", pred)
	}
}

// minimalApp is the smallest legal graph: a one-thread source feeding a
// one-thread sink through a single buffer.
func minimalApp(t *testing.T) *model.App {
	t.Helper()
	a := model.NewApp("minimal")
	mt, err := a.AddType(&model.DataType{Name: "matrix", Rows: 8, Cols: 8, Elem: model.ElemComplex})
	if err != nil {
		t.Fatal(err)
	}
	src := a.AddFunction(&model.Function{Name: "source", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": 1}})
	src.AddOutput("out", mt, model.ByRows)
	sink := a.AddFunction(&model.Function{Name: "sink", Kind: "sink_matrix", Threads: 1})
	sink.AddInput("in", mt, model.ByRows)
	if _, err := a.Connect("source", "out", "sink", "in"); err != nil {
		t.Fatal(err)
	}
	a.AssignIDs()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// For the one-task graph there is no pipeline interleaving to approximate:
// the twin and the DES must agree on elapsed time exactly, in every
// protocol mode, whether the two tasks share a node or sit on two.
func TestDegenerateOneTaskGraphExact(t *testing.T) {
	pl := platforms.CSPI()
	app := minimalApp(t)
	for _, nodes := range []int{1, 2} {
		mapping, err := model.SpreadParallel(app, nodes)
		if err != nil {
			t.Fatal(err)
		}
		out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: pl, NumNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(out.Tables, pl)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range []bool{false, true} {
			for _, opt := range []bool{false, true} {
				res, err := sagert.Run(out.Tables, pl, sagert.Options{
					Iterations: 5, Sequential: seq, OptimizedBuffers: opt,
				})
				if err != nil {
					t.Fatal(err)
				}
				pred := ev.Predict(Options{Iterations: 5, Sequential: seq, OptimizedBuffers: opt})
				if pred.Elapsed != sim.Duration(res.Elapsed) {
					t.Errorf("nodes=%d seq=%v opt=%v: twin %v != DES %v",
						nodes, seq, opt, pred.Elapsed, res.Elapsed)
				}
			}
		}
	}
}
