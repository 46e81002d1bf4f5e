package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/atot"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/sagert"
)

func buildProgram(t *testing.T) *Program {
	t.Helper()
	prog, err := Build(Spec{App: "cornerturn", N: 64, Threads: 4, Platform: platforms.CSPI(), Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestBuildAndRun(t *testing.T) {
	prog := buildProgram(t)
	if prog.Tables() == nil || len(prog.Tables().Functions) != 4 {
		t.Fatalf("tables = %+v", prog.Tables())
	}
	res, err := prog.Run(sagert.Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == nil || res.Period <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// A program can run repeatedly, each time on a fresh machine, with
	// identical virtual timing.
	res2, err := prog.Run(sagert.Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Period != res2.Period {
		t.Fatalf("re-run diverged: %v vs %v", res.Period, res2.Period)
	}
}

func TestRunTraced(t *testing.T) {
	prog := buildProgram(t)
	res, trace, err := prog.RunTraced(sagert.Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(trace.Events) == 0 {
		t.Fatal("no trace collected")
	}
	// Every function thread of the program contributes probe events.
	threads := map[string]bool{}
	for _, e := range trace.Events {
		threads[sagert.ProcName(prog.App.Name, e.FnName, e.Thread)] = true
	}
	want := 0
	for _, f := range prog.Tables().Functions {
		want += f.Threads
	}
	if len(threads) != want {
		t.Fatalf("probe events from %d threads, want %d", len(threads), want)
	}
}

// TestBuildNames builds every app name and every mapping strategy name Build
// accepts and checks each lands on the intended model and a valid mapping.
func TestBuildNames(t *testing.T) {
	for _, c := range []struct{ app, model string }{
		{"fft2d", "fft2d_32"},
		{"cornerturn", "cornerturn_32"},
		{"ct", "cornerturn_32"},
		{"stap", "stap_32"},
	} {
		prog, err := Build(Spec{App: c.app, N: 32, Threads: 2, Platform: platforms.CSPI(), Nodes: 2})
		if err != nil {
			t.Fatalf("app %s: %v", c.app, err)
		}
		if prog.App.Name != c.model {
			t.Fatalf("app %s built %q, want %q", c.app, prog.App.Name, c.model)
		}
	}
	app, err := apps.FFT2D(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	spread, _ := model.SpreadParallel(app, 4)
	stagger, _ := model.StaggerParallel(app, 4)
	for _, c := range []struct {
		mapping string
		want    *model.Mapping // nil: any valid mapping
	}{
		{"", spread},
		{"spread", spread},
		{"stagger", stagger},
		{"roundrobin", model.RoundRobin(app, 4)},
		{"greedy", nil},
		{"ga", nil},
	} {
		prog, err := Build(Spec{App: "fft2d", N: 32, Threads: 4, Platform: platforms.CSPI(), Nodes: 4,
			Mapping: c.mapping, GA: atot.GAConfig{Population: 8, Generations: 3, Seed: 5}})
		if err != nil {
			t.Fatalf("mapping %q: %v", c.mapping, err)
		}
		if err := prog.Mapping.Validate(prog.App, 4); err != nil {
			t.Fatalf("mapping %q: %v", c.mapping, err)
		}
		if c.want != nil && !reflect.DeepEqual(prog.Mapping.Assign, c.want.Assign) {
			t.Fatalf("mapping %q = %v, want %v", c.mapping, prog.Mapping.Assign, c.want.Assign)
		}
		if (c.mapping == "ga") != (prog.GA != nil) {
			t.Fatalf("mapping %q: GA stats %+v", c.mapping, prog.GA)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cspi := platforms.CSPI()
	ok := Spec{App: "cornerturn", N: 32, Threads: 2, Platform: cspi, Nodes: 2}
	app, _ := apps.FFT2D(32, 2)
	other, _ := model.SpreadParallel(app, 2)
	with := func(edit func(*Spec)) Spec { s := ok; edit(&s); return s }
	for _, c := range []struct {
		name    string
		spec    Spec
		unknown bool
		msg     string
	}{
		{"unknown app", with(func(s *Spec) { s.App = "sonar" }), true, `app "sonar"`},
		{"unknown mapping", with(func(s *Spec) { s.Mapping = "anneal" }), true, `mapping "anneal"`},
		{"zero n", with(func(s *Spec) { s.N = 0 }), false, "matrix edge 0"},
		{"negative threads", with(func(s *Spec) { s.Threads = -1 }), false, "thread count -1"},
		{"zero nodes", with(func(s *Spec) { s.Nodes = 0 }), false, "nodes must be positive"},
		{"no app", with(func(s *Spec) { s.App = "" }), false, "no app or model"},
		{"mapping for another app", with(func(s *Spec) { s.Assign, s.AssignApp = other, app.Name }), false, "mapping is for app"},
	} {
		_, err := Build(c.spec)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if errors.Is(err, ErrUnknown) != c.unknown || !strings.Contains(err.Error(), c.msg) {
			t.Fatalf("%s: err = %v", c.name, err)
		}
	}
	// Unknown kind caught by the library validation layer.
	bad := model.NewApp("bad")
	mt, _ := bad.AddType(&model.DataType{Name: "m", Rows: 8, Cols: 8, Elem: model.ElemComplex})
	f := bad.AddFunction(&model.Function{Name: "f", Kind: "warp", Threads: 1})
	f.AddOutput("out", mt, model.ByRows)
	badMap := model.NewMapping()
	badMap.Set("f", 0)
	if _, err := Build(Spec{Model: bad, Assign: badMap, Platform: cspi, Nodes: 1}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBuildWithScript(t *testing.T) {
	spec := Spec{App: "cornerturn", N: 32, Threads: 2, Platform: platforms.CSPI(), Nodes: 2}
	prog, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.Artifacts.GlueSource, "SAGE auto-generated") {
		t.Fatal("glue listing missing")
	}
	spec.Script = "(nope)"
	if _, err := Build(spec); err == nil {
		t.Fatal("broken script accepted")
	}
}
