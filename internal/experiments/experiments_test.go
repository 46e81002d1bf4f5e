package experiments

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/atot"
	"repro/internal/platforms"
)

// quickTable runs a reduced Table 1.0 grid fast enough for unit tests while
// keeping the paper's structure.
func quickTable(t *testing.T) *Table1 {
	t.Helper()
	tbl, err := RunTable1(Table1Config{
		Sizes:    []int{64, 128},
		Nodes:    []int{4, 8},
		Protocol: Quick(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTable1StructureAndBand(t *testing.T) {
	tbl := quickTable(t)
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r.Hand <= 0 || r.Sage <= 0 {
			t.Fatalf("non-positive latency in %+v", r)
		}
		// The paper's central claim: generated code is slower than
		// hand-coded but comparable ("within 75%" of it in the abstract's
		// wording, 77.5-86% in the body). Allow a generous band at the
		// reduced sizes used in tests.
		if r.PctOfHand >= 100 {
			t.Fatalf("SAGE beat hand-coded in %+v", r)
		}
		if r.PctOfHand < 55 {
			t.Fatalf("SAGE below 55%% of hand-coded in %+v", r)
		}
	}
	if tbl.OverallAvg <= 0 || tbl.OverallAvg >= 100 {
		t.Fatalf("overall avg = %v", tbl.OverallAvg)
	}
}

func TestTable1PaperScalePoint(t *testing.T) {
	// One full-scale cell of Table 1.0 (1024x1024, 8 nodes) with a reduced
	// protocol: the efficiency must land in the paper's reported band.
	if testing.Short() {
		t.Skip("full-size cell in -short mode")
	}
	tbl, err := RunTable1(Table1Config{
		Sizes:    []int{1024},
		Nodes:    []int{8},
		Protocol: Protocol{Repetitions: 1, Iterations: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tbl.Rows {
		if r.PctOfHand < 70 || r.PctOfHand > 95 {
			t.Fatalf("%s at 1024/8: %.1f%% of hand-coded, outside the paper band [70, 95]", r.App, r.PctOfHand)
		}
	}
}

func TestTable1Format(t *testing.T) {
	tbl := quickTable(t)
	s := tbl.Format()
	for _, want := range []string{"Table 1.0", "2D FFT", "Corner Turn", "64 x 64", "% of Hand", "Overall"} {
		if !strings.Contains(s, want) {
			t.Fatalf("format missing %q:\n%s", want, s)
		}
	}
}

func TestTwoNodeAnomaly(t *testing.T) {
	res, err := RunTwoNode(platforms.CSPI(), 128, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !res.WorstIsTwoNodes() {
		t.Fatalf("two-node configuration is not the worst: %+v", res.Rows)
	}
	if !strings.Contains(res.Format(), "two-node") {
		t.Fatal("format missing title")
	}
}

func TestAggregateOptimizedImproves(t *testing.T) {
	agg, err := RunAggregate(Table1Config{
		Sizes:    []int{128},
		Nodes:    []int{4},
		Protocol: Quick(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Optimized.OverallAvg <= agg.Baseline.OverallAvg {
		t.Fatalf("optimized buffers (%v%%) did not improve on baseline (%v%%)",
			agg.Optimized.OverallAvg, agg.Baseline.OverallAvg)
	}
	if !strings.Contains(agg.Format(), "optimized buffers") {
		t.Fatal("format missing optimized row")
	}
}

func TestCrossVendorShape(t *testing.T) {
	cv, err := RunCrossVendor(128, []int{4, 8}, Quick())
	if err != nil {
		t.Fatal(err)
	}
	// 4 platforms x 2 apps x 2 node counts.
	if len(cv.Rows) != 16 {
		t.Fatalf("rows = %d", len(cv.Rows))
	}
	// The corner turn is fabric-bound: the crossbar (Mercury) must beat
	// the weakest fabric (SIGI).
	var mercury, sigi float64
	for _, r := range cv.Rows {
		if r.App == AppCornerTurn && r.Nodes == 8 {
			switch r.Platform {
			case "Mercury":
				mercury = float64(r.Latency)
			case "SIGI":
				sigi = float64(r.Latency)
			}
		}
	}
	if mercury == 0 || sigi == 0 || mercury >= sigi {
		t.Fatalf("vendor ranking wrong: mercury=%v sigi=%v", mercury, sigi)
	}
	if w := cv.Winner(AppCornerTurn, 8); w != "Mercury" {
		t.Fatalf("corner-turn winner = %s, want Mercury", w)
	}
	s := cv.Format()
	for _, want := range []string{"Mercury", "CSPI", "SKY", "SIGI", "8 nodes"} {
		if !strings.Contains(s, want) {
			t.Fatalf("format missing %q", want)
		}
	}
}

func TestPortabilityAllPlatforms(t *testing.T) {
	p, err := RunPortability(AppFFT2D, 64, 4, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 4 {
		t.Fatalf("rows = %d", len(p.Rows))
	}
	if !p.AllVerified() {
		t.Fatalf("output differed across platforms: %+v", p.Rows)
	}
	if !strings.Contains(p.Format(), "regenerated per platform") {
		t.Fatal("format missing title")
	}
}

func TestGenStudy(t *testing.T) {
	s, err := RunGenStudy(AppCornerTurn, platforms.CSPI(), 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Functions != 4 || s.Buffers != 3 {
		t.Fatalf("study = %+v", s)
	}
	// 8 scatter + 64 all-to-all + 8 gather.
	if s.Transfers != 80 {
		t.Fatalf("transfers = %d, want 80", s.Transfers)
	}
	if !s.Verified || s.TableLines == 0 || s.GlueLines == 0 {
		t.Fatalf("study = %+v", s)
	}
	if !strings.Contains(s.Format(), "Figure 1.0") {
		t.Fatal("format missing title")
	}
}

func TestMappingStudy(t *testing.T) {
	app, err := apps.STAP(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	study, err := RunMappingStudy(app, platforms.CSPI(), 8, atot.GAConfig{Population: 24, Generations: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if study.GACost.Total > study.RoundRobin.Total {
		t.Fatalf("GA (%v) worse than round-robin (%v)", study.GACost.Total, study.RoundRobin.Total)
	}
	if study.MeasuredGA <= 0 || study.MeasuredRR <= 0 {
		t.Fatalf("measured latencies %v %v", study.MeasuredGA, study.MeasuredRR)
	}
	if !strings.Contains(study.Format(), "round-robin") {
		t.Fatal("format missing rows")
	}
}

func TestPipelineStudy(t *testing.T) {
	p, err := RunPipeline(AppFFT2D, platforms.CSPI(), 128, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Pipelining must improve throughput over the sequential runtime.
	if p.SagePipelinePeriod >= p.SageSequential {
		t.Fatalf("pipelined period %v not better than sequential latency %v", p.SagePipelinePeriod, p.SageSequential)
	}
	// Sequential SAGE is slower than hand-coded (the Table 1.0 relation).
	if p.SageSequential <= p.Hand {
		t.Fatalf("sequential SAGE (%v) not slower than hand (%v)", p.SageSequential, p.Hand)
	}
	if !strings.Contains(p.Format(), "Pipelining ablation") {
		t.Fatal("format missing title")
	}
}

func TestScalingStudy(t *testing.T) {
	s, err := RunScaling(AppFFT2D, platforms.CSPI(), 256, []int{1, 2, 4, 8}, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	// The compute-bound FFT must keep speeding up with node count, for
	// both versions.
	for i := 1; i < len(s.Rows); i++ {
		if s.Rows[i].HandSpeedup <= s.Rows[i-1].HandSpeedup {
			t.Fatalf("hand speedup not monotone: %+v", s.Rows)
		}
		if s.Rows[i].SageSpeedup <= s.Rows[i-1].SageSpeedup {
			t.Fatalf("sage speedup not monotone: %+v", s.Rows)
		}
	}
	// Speedups are sublinear (communication and the serial source/sink).
	last := s.Rows[len(s.Rows)-1]
	if last.HandSpeedup >= float64(last.Nodes) {
		t.Fatalf("superlinear hand speedup %v at %d nodes", last.HandSpeedup, last.Nodes)
	}
	if !strings.Contains(s.Format(), "Scaling study") {
		t.Fatal("format missing title")
	}
}

func TestEstimateAccuracy(t *testing.T) {
	app, err := apps.FFT2D(128, 4)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := RunEstimateAccuracy(app, platforms.CSPI(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ea.Points) < 3 {
		t.Fatalf("points = %d", len(ea.Points))
	}
	c, tot := ea.RankAgreement()
	if tot == 0 {
		t.Fatal("no comparable pairs")
	}
	// The analytic model must order mappings mostly like the simulator.
	if float64(c) < 0.7*float64(tot) {
		t.Fatalf("rank agreement %d/%d too low:\n%s", c, tot, ea.Format())
	}
	if !strings.Contains(ea.Format(), "rank agreement") {
		t.Fatal("format missing summary")
	}
}

func TestHeterogeneousStudy(t *testing.T) {
	app, err := apps.STAP(128, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Two fast nodes, four baseline, two slow.
	speeds := []float64{2, 2, 1, 1, 1, 1, 0.5, 0.5}
	h, err := RunHeterogeneous(app, platforms.CSPI(), speeds,
		atot.GAConfig{Population: 32, Generations: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h.MeasuredGA <= 0 || h.MeasuredRR <= 0 {
		t.Fatalf("study = %+v", h)
	}
	// The speed-aware GA must beat naive round-robin placement on a
	// heterogeneous machine.
	if h.MeasuredGA >= h.MeasuredRR {
		t.Fatalf("GA (%v) not faster than round-robin (%v) on heterogeneous nodes", h.MeasuredGA, h.MeasuredRR)
	}
	if !strings.Contains(h.Format(), "Heterogeneous") {
		t.Fatal("format missing title")
	}
}

func TestRealTimeStudy(t *testing.T) {
	rt, err := RunRealTime(AppCornerTurn, platforms.CSPI(), 128, 4, 6, []float64{0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Rows) != 2 {
		t.Fatalf("rows = %d", len(rt.Rows))
	}
	over, under := rt.Rows[0], rt.Rows[1]
	// Pacing at half the achievable period overruns; 1.5x is sustained.
	if over.Sustained {
		t.Fatalf("overdriven input reported sustained: %+v", over)
	}
	if !under.Sustained {
		t.Fatalf("slack input not sustained: %+v", under)
	}
	if over.MaxOverrun <= under.MaxOverrun {
		t.Fatalf("overrun ordering wrong: %v vs %v", over.MaxOverrun, under.MaxOverrun)
	}
	if !strings.Contains(rt.Format(), "Real-time") {
		t.Fatal("format missing title")
	}
}

func TestProtocolDefaults(t *testing.T) {
	p := Protocol{}.withDefaults()
	if p.Repetitions != 1 || p.Iterations != 1 {
		t.Fatalf("defaults = %+v", p)
	}
	paper := Paper()
	if paper.Repetitions != 10 || paper.Iterations != 100 {
		t.Fatalf("paper protocol = %+v", paper)
	}
}

func TestBuildAppUnknownKind(t *testing.T) {
	if _, err := BuildApp("bogus", 64, 4); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, _, err := runHand("bogus", platforms.CSPI(), 4, 64, Quick()); err == nil {
		t.Fatal("unknown kind accepted by runHand")
	}
}
