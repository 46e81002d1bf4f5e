package twin

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/platforms"
	"repro/internal/sim"
)

// randomPlatform derives a random but valid platform from CSPI, keeping the
// name (the evaluator checks tables and platform agree) and the board
// shape (the tables bake node adjacency into nothing, but contiguity and
// transfer structure must stay meaningful).
func randomPlatform(rng *rand.Rand) machine.Platform {
	pl := platforms.CSPI()
	scale := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	pl.ClockHz *= scale(0.5, 2)
	pl.MemCopyBW *= scale(0.5, 2)
	pl.SendOverhead = sim.Duration(float64(pl.SendOverhead) * scale(0.5, 2))
	pl.RecvOverhead = sim.Duration(float64(pl.RecvOverhead) * scale(0.5, 2))
	pl.IntraLatency = sim.Duration(float64(pl.IntraLatency) * scale(0.5, 2))
	pl.InterLatency = sim.Duration(float64(pl.InterLatency) * scale(0.5, 2))
	pl.IntraBW *= scale(0.5, 2)
	pl.InterBW *= scale(0.5, 2)
	return pl
}

// The twin must be monotone in the platform's pessimism: making a link
// slower (more latency, less bandwidth), the software stack heavier, or a
// node slower can never shorten the predicted run. Checked over seeded
// random platforms so the property holds across the parameter space, not
// just at the calibrated vendor points.
func TestMonotonicity(t *testing.T) {
	base := platforms.CSPI()
	prog, err := core.Build(core.Spec{App: "fft2d", N: 32, Threads: 8, Platform: base, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}

	modes := []Options{
		{Iterations: 4},
		{Iterations: 4, OptimizedBuffers: true},
		{Iterations: 4, Sequential: true},
		{Iterations: 4, Sequential: true, OptimizedBuffers: true},
	}
	price := func(pl machine.Platform, speeds []float64) []sim.Duration {
		ev, err := NewEvaluator(prog.Tables(), pl)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]sim.Duration, len(modes))
		for i, o := range modes {
			o.NodeSpeeds = speeds
			got[i] = ev.PredictElapsed(ev.BaseAssign(), o)
		}
		return got
	}
	check := func(seed int64, what string, ref, worse []sim.Duration) {
		for i := range ref {
			if worse[i] < ref[i] {
				t.Errorf("seed %d, %s, mode %d: prediction dropped %v -> %v",
					seed, what, i, ref[i], worse[i])
			}
		}
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pl := randomPlatform(rng)
		ref := price(pl, nil)

		// More wire latency.
		lat := pl
		lat.IntraLatency += sim.Duration(rng.Int63n(int64(200 * time.Microsecond)))
		lat.InterLatency += sim.Duration(rng.Int63n(int64(500 * time.Microsecond)))
		check(seed, "latency up", ref, price(lat, nil))

		// Less wire bandwidth.
		bw := pl
		bw.IntraBW /= 1 + rng.Float64()*9
		bw.InterBW /= 1 + rng.Float64()*9
		check(seed, "bandwidth down", ref, price(bw, nil))

		// Heavier messaging software.
		ovh := pl
		ovh.SendOverhead += sim.Duration(rng.Int63n(int64(50 * time.Microsecond)))
		ovh.RecvOverhead += sim.Duration(rng.Int63n(int64(50 * time.Microsecond)))
		check(seed, "overhead up", ref, price(ovh, nil))

		// One node slows down.
		speeds := make([]float64, 8)
		for i := range speeds {
			speeds[i] = 1
		}
		speeds[rng.Intn(8)] = 0.2 + rng.Float64()*0.7
		check(seed, "node slows", ref, price(pl, speeds))
	}
}
