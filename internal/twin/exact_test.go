package twin

import (
	"testing"

	"repro/internal/core"
	"repro/internal/platforms"
	"repro/internal/sagert"
)

// The twin's per-node busy accounting is not an approximation: every CPU,
// copy and wire charge mirrors a charge the DES makes, so the per-node
// Compute/Copy/Comm totals must equal the simulator's NodeStats to the
// nanosecond on every platform, node count and protocol mode. Only the
// arrangement of those charges in time (and hence Elapsed) is approximated;
// that error is bounded by the calibration gates in twin/validate.
func TestNodeAccountingMatchesDESExactly(t *testing.T) {
	apps := []string{"fft2d", "cornerturn"}
	for _, name := range platforms.Names() {
		pl, err := platforms.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range apps {
			for _, nodes := range []int{1, 2, 4} {
				prog, err := core.Build(core.Spec{App: app, N: 64, Threads: nodes, Platform: pl, Nodes: nodes})
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, app, nodes, err)
				}
				ev, err := NewEvaluator(prog.Tables(), pl)
				if err != nil {
					t.Fatal(err)
				}
				for _, seq := range []bool{false, true} {
					for _, opt := range []bool{false, true} {
						res, err := sagert.Run(prog.Tables(), pl, sagert.Options{
							Iterations: 4, Sequential: seq, OptimizedBuffers: opt,
						})
						if err != nil {
							t.Fatal(err)
						}
						pred := ev.Predict(Options{Iterations: 4, Sequential: seq, OptimizedBuffers: opt})
						for n, ns := range res.NodeStats {
							tc := pred.Nodes[n]
							if tc.Compute != ns.ComputeBusy || tc.Copy != ns.CopyBusy || tc.Comm != ns.CommBusy {
								t.Errorf("%s/%s nodes=%d seq=%v opt=%v node %d: twin %v/%v/%v, DES %v/%v/%v",
									name, app, nodes, seq, opt, n,
									tc.Compute, tc.Copy, tc.Comm,
									ns.ComputeBusy, ns.CopyBusy, ns.CommBusy)
							}
						}
						// Elapsed is approximated; a gross mismatch means a
						// structural bug, not calibration error. Pipelined
						// runs track the DES closely; sequential multi-node
						// runs carry the documented CPU-contention blind
						// spot (processor sharing stretches the measured
						// makespan), so their structural bound is looser.
						bound := 15.0
						if seq {
							bound = 40.0
						}
						ape := 100 * abs(float64(pred.Elapsed)-float64(res.Elapsed)) / float64(res.Elapsed)
						if ape > bound {
							t.Errorf("%s/%s nodes=%d seq=%v opt=%v: DES=%v twin=%v ape=%.1f%%",
								name, app, nodes, seq, opt, res.Elapsed, pred.Elapsed, ape)
						}
					}
				}
			}
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
