// Package apps builds the benchmark application models of §3.1 — the
// Parallel 2D FFT and the Distributed Corner Turn — plus the space-time
// adaptive processing (STAP) style pipeline used by the examples. These are
// the models an engineer would draw in the SAGE Designer's application
// editor; here they are constructed programmatically and can be serialised
// with model.WriteText.
package apps

import (
	"fmt"

	"repro/internal/funclib"
	"repro/internal/model"
)

// FFT2D builds the Parallel 2D FFT application: a data source feeding a
// row-striped row-FFT stage, a column-striped column-FFT stage (the
// row-to-column striping change on the connecting arc is the distributed
// corner turn, performed by the runtime), and a data sink.
//
//	source -> fft_rows(T, rows->rows) -> fft_cols(T, cols->cols) -> sink
//
// n is the square matrix edge (power of two); threads is the data
// parallelism of the FFT stages.
func FFT2D(n, threads int) (*model.App, error) {
	if err := CheckSize(n, threads); err != nil {
		return nil, err
	}
	a := model.NewApp(fmt.Sprintf("fft2d_%d", n))
	mt, err := a.AddType(&model.DataType{Name: "matrix", Rows: n, Cols: n, Elem: model.ElemComplex})
	if err != nil {
		return nil, err
	}

	src := a.AddFunction(&model.Function{Name: "source", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": 1}})
	src.AddOutput("out", mt, model.ByRows)

	fftr := a.AddFunction(&model.Function{Name: "fft_rows", Kind: "fft_rows", Threads: threads})
	fftr.AddInput("in", mt, model.ByRows)
	fftr.AddOutput("out", mt, model.ByRows)

	fftc := a.AddFunction(&model.Function{Name: "fft_cols", Kind: "fft_cols", Threads: threads})
	fftc.AddInput("in", mt, model.ByCols)
	fftc.AddOutput("out", mt, model.ByCols)

	sink := a.AddFunction(&model.Function{Name: "sink", Kind: "sink_matrix", Threads: 1})
	sink.AddInput("in", mt, model.ByRows)

	for _, c := range [][4]string{
		{"source", "out", "fft_rows", "in"},
		{"fft_rows", "out", "fft_cols", "in"},
		{"fft_cols", "out", "sink", "in"},
	} {
		if _, err := a.Connect(c[0], c[1], c[2], c[3]); err != nil {
			return nil, err
		}
	}
	return finish(a)
}

// CornerTurn builds the Distributed Corner Turn application: the ingest
// stage holds the matrix row-striped; the arc to the turn stage demands it
// column-striped (the all-to-all redistribution); the turn stage finishes
// with a local transpose so its output is the row-striped transpose.
//
//	source -> ingest identity(T, rows->rows) -> turn transpose_block(T, cols->rows) -> sink
func CornerTurn(n, threads int) (*model.App, error) {
	if err := CheckSize(n, threads); err != nil {
		return nil, err
	}
	a := model.NewApp(fmt.Sprintf("cornerturn_%d", n))
	mt, err := a.AddType(&model.DataType{Name: "matrix", Rows: n, Cols: n, Elem: model.ElemComplex})
	if err != nil {
		return nil, err
	}

	src := a.AddFunction(&model.Function{Name: "source", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": 1}})
	src.AddOutput("out", mt, model.ByRows)

	ingest := a.AddFunction(&model.Function{Name: "ingest", Kind: "identity", Threads: threads})
	ingest.AddInput("in", mt, model.ByRows)
	ingest.AddOutput("out", mt, model.ByRows)

	turn := a.AddFunction(&model.Function{Name: "turn", Kind: "transpose_block", Threads: threads})
	turn.AddInput("in", mt, model.ByCols)
	turn.AddOutput("out", mt, model.ByRows)

	sink := a.AddFunction(&model.Function{Name: "sink", Kind: "sink_matrix", Threads: 1})
	sink.AddInput("in", mt, model.ByRows)

	for _, c := range [][4]string{
		{"source", "out", "ingest", "in"},
		{"ingest", "out", "turn", "in"},
		{"turn", "out", "sink", "in"},
	} {
		if _, err := a.Connect(c[0], c[1], c[2], c[3]); err != nil {
			return nil, err
		}
	}
	return finish(a)
}

// STAP builds a space-time-adaptive-processing style pipeline of the kind
// the paper's introduction motivates (radar/signal processing): windowing,
// Doppler FFT across rows, corner turn, FFT down the (former) columns, and
// magnitude detection.
//
//	source -> window_rows -> fft_rows -> fft_cols -> mag2 -> sink
func STAP(n, threads int) (*model.App, error) {
	if err := CheckSize(n, threads); err != nil {
		return nil, err
	}
	a := model.NewApp(fmt.Sprintf("stap_%d", n))
	mt, err := a.AddType(&model.DataType{Name: "cube", Rows: n, Cols: n, Elem: model.ElemComplex})
	if err != nil {
		return nil, err
	}

	src := a.AddFunction(&model.Function{Name: "source", Kind: "source_matrix", Threads: 1,
		Params: map[string]any{"seed": 7}})
	src.AddOutput("out", mt, model.ByRows)

	win := a.AddFunction(&model.Function{Name: "window", Kind: "window_rows", Threads: threads,
		Params: map[string]any{"window": "hamming"}})
	win.AddInput("in", mt, model.ByRows)
	win.AddOutput("out", mt, model.ByRows)

	dop := a.AddFunction(&model.Function{Name: "doppler", Kind: "fft_rows", Threads: threads})
	dop.AddInput("in", mt, model.ByRows)
	dop.AddOutput("out", mt, model.ByRows)

	beam := a.AddFunction(&model.Function{Name: "beam", Kind: "fft_cols", Threads: threads})
	beam.AddInput("in", mt, model.ByCols)
	beam.AddOutput("out", mt, model.ByCols)

	det := a.AddFunction(&model.Function{Name: "detect", Kind: "mag2", Threads: threads})
	det.AddInput("in", mt, model.ByCols)
	det.AddOutput("out", mt, model.ByCols)

	sink := a.AddFunction(&model.Function{Name: "sink", Kind: "sink_matrix", Threads: 1})
	sink.AddInput("in", mt, model.ByRows)

	for _, c := range [][4]string{
		{"source", "out", "window", "in"},
		{"window", "out", "doppler", "in"},
		{"doppler", "out", "beam", "in"},
		{"beam", "out", "detect", "in"},
		{"detect", "out", "sink", "in"},
	} {
		if _, err := a.Connect(c[0], c[1], c[2], c[3]); err != nil {
			return nil, err
		}
	}
	return finish(a)
}

// CheckSize reports whether n and threads are a valid benchmark size: a
// power-of-two matrix edge and between 1 and n worker threads.
func CheckSize(n, threads int) error {
	if n < 2 || n&(n-1) != 0 {
		return fmt.Errorf("apps: matrix edge %d must be a power of two >= 2", n)
	}
	if threads < 1 || threads > n {
		return fmt.Errorf("apps: thread count %d must be in [1, %d]", threads, n)
	}
	return nil
}

func finish(a *model.App) (*model.App, error) {
	a.AssignIDs()
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := funclib.ValidateApp(a); err != nil {
		return nil, err
	}
	return a, nil
}
