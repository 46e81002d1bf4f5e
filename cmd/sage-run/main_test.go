package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
)

// writeModel serialises a benchmark model into dir and returns its path.
func writeModel(t *testing.T, dir string) string {
	t.Helper()
	app, err := apps.CornerTurn(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ct.sage")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := app.WriteText(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	return string(buf[:n]), ferr
}

func TestRunFromModel(t *testing.T) {
	dir := t.TempDir()
	modelPath := writeModel(t, dir)
	csvPath := filepath.Join(dir, "trace.csv")
	svgPath := filepath.Join(dir, "trace.svg")
	out, err := captureStdout(t, func() error {
		return run(options{
			modelFile: modelPath, platformName: "CSPI", nodes: 4,
			iterations: 3, traceCSV: csvPath, svgOut: svgPath,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"period:", "avg latency:", "node 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil || !strings.HasPrefix(string(csv), "fn,name") {
		t.Fatalf("trace csv missing/wrong: %v", err)
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil || !strings.Contains(string(svg), "<svg") {
		t.Fatalf("svg missing/wrong: %v", err)
	}
}

func TestRunFromPregeneratedTables(t *testing.T) {
	dir := t.TempDir()
	modelPath := writeModel(t, dir)
	// Generate tables via the loadTables path, save, and re-run from file.
	pl, nodes, err := resolvePlatform(options{platformName: "CSPI", nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := loadTables(options{modelFile: modelPath}, pl, nodes)
	if err != nil {
		t.Fatal(err)
	}
	_ = tables
	// Emit table source through gluegen directly for the file path.
	app, _ := apps.CornerTurn(64, 4)
	mapping, _ := model.SpreadParallel(app, 4)
	outPath := filepath.Join(dir, "ct.tbl")
	outSrc := generateTableSource(t, app, mapping)
	if err := os.WriteFile(outPath, []byte(outSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run(options{tablesFile: outPath, iterations: 2, platformName: "CSPI"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cornerturn_64 on CSPI") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunWithCustomHardware(t *testing.T) {
	dir := t.TempDir()
	modelPath := writeModel(t, dir)
	hwPath := filepath.Join(dir, "custom.hw")
	sys := model.SystemFromPlatform(mustPlatform(t, "SKY"), 1)
	sys.Name = "CustomSKY"
	f, err := os.Create(hwPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteHWText(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, err := captureStdout(t, func() error {
		return run(options{modelFile: modelPath, hwFile: hwPath, iterations: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "on CustomSKY (4 nodes)") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(options{}); err == nil {
		t.Fatal("no inputs accepted")
	}
	if err := run(options{modelFile: "/nonexistent", platformName: "CSPI", nodes: 4}); err == nil {
		t.Fatal("missing model accepted")
	}
	if err := run(options{tablesFile: "/nonexistent"}); err == nil {
		t.Fatal("missing tables accepted")
	}
	if err := run(options{modelFile: "x", platformName: "Cray", nodes: 4}); err == nil {
		t.Fatal("unknown platform accepted")
	}
}
