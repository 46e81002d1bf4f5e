package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/gluegen"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
	"repro/internal/trace"
	"repro/internal/viz"
)

// writeTrace runs a traced corner turn and exports its CSV.
func writeTrace(t *testing.T, dir string) string {
	t.Helper()
	app, err := apps.CornerTurn(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	mapping, _ := model.SpreadParallel(app, 2)
	out, err := gluegen.Generate(gluegen.Input{App: app, Mapping: mapping, Platform: platforms.CSPI(), NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	col := trace.New("viz")
	if _, err := sagert.Run(out.Tables, platforms.CSPI(), sagert.Options{Iterations: 2, Collector: col}); err != nil {
		t.Fatal(err)
	}
	vt := viz.FromCollector(col, out.Tables)
	path := filepath.Join(dir, "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := vt.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportFromCSV(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTrace(t, dir)
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(tracePath, 60, false, "")
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	if !strings.Contains(string(buf[:n]), "Visualizer report") {
		t.Fatalf("report:\n%s", string(buf[:n]))
	}
}

func TestSVGFromCSV(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTrace(t, dir)
	svgPath := filepath.Join(dir, "out.svg")
	if err := run(tracePath, 60, false, svgPath); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil || !strings.Contains(string(svg), "<svg") {
		t.Fatalf("svg: %v", err)
	}
}

func TestVizErrors(t *testing.T) {
	if err := run("", 60, false, ""); err == nil {
		t.Fatal("missing trace accepted")
	}
	if err := run("/nonexistent.csv", 60, false, ""); err == nil {
		t.Fatal("missing file accepted")
	}
}
