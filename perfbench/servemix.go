package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/platforms"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/twin"
)

// The serve-mix open loop. Requests arrive as a Poisson process at a fixed
// rate from one process over at most nproc connections, and each one is
// timed from when it was due, so a stall shows in every request queued
// behind it. These constants are the workload's definition; changing one
// changes what the benchmark measures.
const (
	serveRate  = 100.0                  // offered requests per second in the fixed-rate phase
	serveLimit = 100 * time.Millisecond // latency limit for goodput and the rate ladder
)

// ladderRates are the offered rates the ladder tries, lowest first.
var ladderRates = []float64{300, 350, 400, 450, 500, 550, 600, 650, 700, 750, 800, 850, 900}

// hotSet is the small set of requests most of the mix repeats: after the
// first answer every repeat is a cache read.
var hotSet = []serve.Request{
	{App: "fft2d", N: 64, Threads: 2, Nodes: 4, Protocol: serve.Protocol{Iterations: 2}},
	{App: "fft2d", N: 128, Threads: 4, Nodes: 8, Protocol: serve.Protocol{Iterations: 3}},
	{App: "fft2d", N: 256, Threads: 4, Nodes: 8, Protocol: serve.Protocol{Iterations: 2}},
	{App: "cornerturn", N: 64, Threads: 2, Nodes: 4, Protocol: serve.Protocol{Iterations: 2}},
	{App: "cornerturn", N: 256, Threads: 4, Nodes: 8, Protocol: serve.Protocol{Iterations: 3}},
	{App: "stap", N: 64, Threads: 2, Nodes: 4, Protocol: serve.Protocol{Iterations: 2}},
	{App: "stap", N: 128, Threads: 4, Nodes: 8, Protocol: serve.Protocol{Iterations: 2}},
	{App: "fft2d", N: 128, Threads: 2, Nodes: 4, Platform: "Mercury", Protocol: serve.Protocol{Iterations: 3}},
}

// mixBlock is the request mix: every block of 200 consecutive requests
// holds exactly these counts, in a seeded order. Fixing the composition
// keeps the work a run offers the same from seed to seed, so the seed moves
// the order, the arrival times and the fresh keys, not the amount of work.
var mixBlock = []struct {
	cat   string
	count int
}{
	{"hit", 120},     // a hot-set repeat
	{"run", 44},      // a fresh batch run
	{"estimate", 16}, // a fresh twin estimate
	{"map", 10},      // a fresh run mapped by greedy or GA
	{"traced", 4},    // a fresh run with trace_summary
	{"faults", 3},    // a fresh run under a fault plan
	{"stream", 3},    // a fresh small streaming run
}

const faultPlan = "seed 9\ndrop link=* rate=0.1\nstall node=1 at=200us for=500us\n"

// mixReq is one generated request.
type mixReq struct {
	cat  string
	body []byte
}

// genMix returns n requests of the seeded stream, numbered from base. Each
// category walks its own list of shapes in turn. Fresh requests carry a
// request seed no other request of the stream has, so each is a new cache
// key and pays the full set-up and run.
func genMix(seed int64, base, n int) []mixReq {
	rng := rand.New(rand.NewSource(seed*7919 + int64(base)))
	var block []string
	for _, m := range mixBlock {
		for i := 0; i < m.count; i++ {
			block = append(block, m.cat)
		}
	}
	turn := map[string]int{}
	apps := []string{"fft2d", "cornerturn", "stap"}
	out := make([]mixReq, 0, n)
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		cat := block[i%len(block)]
		k := turn[cat]
		turn[cat]++
		req := serve.Request{App: apps[k%3], Seed: seed*1_000_000 + int64(base+i) + 1}
		switch cat {
		case "hit":
			req = hotSet[k%len(hotSet)]
		case "run":
			req.N, req.Threads, req.Nodes = []int{64, 128, 256}[k/3%3], 2+2*(k/9%2), 4+4*(k/18%2)
			req.Protocol.Iterations = 2 + k/36%2
		case "estimate":
			req.N, req.Threads, req.Nodes, req.Estimate = []int{128, 256, 512}[k/3%3], 4, 8, true
			req.Protocol.Iterations = []int{3, 10}[k/9%2]
		case "map":
			req.N, req.Threads, req.Nodes = []int{64, 128}[k/3%2], 4, 8
			req.Mapping = []string{"greedy", "greedy", "ga"}[k/6%3]
			req.Protocol.Iterations = 2
		case "traced":
			req.N, req.Threads, req.Nodes, req.TraceSummary = []int{64, 128}[k/3%2], 2, 4, true
			req.Protocol.Iterations = 2
		case "faults":
			req.App, req.N, req.Threads, req.Nodes, req.Faults = "fft2d", []int{64, 128}[k%2], 4, 8, faultPlan
			req.Protocol.Iterations = 2
		case "stream":
			req.App, req.N, req.Threads, req.Nodes = "fft2d", []int{32, 64}[k%2], 2, 4
			req.Protocol.Stream = &serve.StreamSpec{Classes: []stream.Class{
				{Name: "interactive", Process: "poisson", Rate: 400, Frames: []int{10, 20}[k/2%2], SLOMs: 20},
				{Name: "batch", Process: "gamma", Rate: 100, Shape: 4, Frames: 5, Weight: 2},
			}}
		}
		b, err := json.Marshal(&req)
		if err != nil {
			panic(err) // plain data cannot fail to marshal
		}
		out = append(out, mixReq{cat: cat, body: b})
	}
	return out
}

// arrivals returns n Poisson due times at rate per second, from the seed.
func arrivals(seed int64, base, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed*104729 + int64(base)))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		due[i] = time.Duration(t * float64(time.Second))
		t += rng.ExpFloat64() / rate
	}
	return due
}

// outcome is one request's fate.
type outcome struct {
	status     int
	resp       []byte
	cache      string
	err        error
	sent, done time.Time
	lag        time.Duration // how late the generator released it
	latency    time.Duration // done minus due
}

// openLoop sends reqs at their due times over conns connections and waits
// for every answer.
func openLoop(client *http.Client, url string, reqs []mixReq, due []time.Duration, conns int) []outcome {
	out := make([]outcome, len(reqs))
	ready := make(chan int, len(reqs)) // one slot per request: releasing one never blocks the schedule
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				o := &out[i]
				o.sent = time.Now()
				o.status, o.resp, o.cache, o.err = post(client, url, reqs[i].body)
				o.done = time.Now()
				o.latency = o.done.Sub(start.Add(due[i]))
			}
		}()
	}
	for i := range reqs {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		out[i].lag = time.Since(at)
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out
}

func post(c *http.Client, url string, body []byte) (int, []byte, string, error) {
	resp, err := c.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header.Get("X-Sage-Cache"), err
}

// daemon is an in-process sage-serve behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan struct{} // closed when the listener's Serve returns
}

// startDaemon starts the server and returns once /v1/health answers 200.
func startDaemon(client *http.Client) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(serve.Config{}), url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	d.hs = &http.Server{Handler: d.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // always ErrServerClosed once stop closes it
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(d.url + "/v1/health")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener and connections, waits for Serve to return and
// then for the worker fleet to exit.
func (d *daemon) stop() {
	_ = d.hs.Close() // closing an http.Server only reports listener close errors, which leave nothing to clean up
	<-d.served
	d.srv.Shutdown()
}

func (d *daemon) stats(client *http.Client) (serve.Stats, error) {
	var st serve.Stats
	resp, err := client.Get(d.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// gauges samples the daemon's queue depth and busy workers until stop.
type gauges struct {
	queueMax int
	busy     []float64
	stop     chan struct{}
	done     chan struct{}
}

func sampleGauges(s *serve.Server) *gauges {
	g := &gauges{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				st := s.Stats()
				g.queueMax = max(g.queueMax, st.QueueDepth)
				g.busy = append(g.busy, float64(st.BusyWorkers))
			}
		}
	}()
	return g
}

func (g *gauges) finish() {
	close(g.stop)
	<-g.done
}

// checker holds the first answer to every request body and the checks on
// every answer after it.
type checker struct {
	r     *report
	first map[string][]byte
}

// take checks one outcome: a 200 whose body decodes, and, for a body seen
// before, the same bytes as the first answer. It reports whether the request
// succeeded.
func (c *checker) take(q mixReq, o *outcome) bool {
	c.r.attempted++
	switch {
	case o.err != nil:
		c.r.check(false, "%s request: %v", q.cat, o.err)
		return false
	case o.status != http.StatusOK:
		c.r.check(false, "%s request: status %d: %s", q.cat, o.status, bytes.TrimSpace(o.resp))
		return false
	}
	var resp serve.Response
	if err := json.Unmarshal(o.resp, &resp); err != nil {
		c.r.check(false, "%s response does not decode: %v", q.cat, err)
		return false
	}
	if q.cat == "stream" {
		c.r.check(resp.Stream != nil, "stream response has no stream report")
	} else {
		c.r.check(resp.ElapsedNs > 0, "%s response has no elapsed time", q.cat)
	}
	key := string(q.body)
	if prev, ok := c.first[key]; ok {
		c.r.check(bytes.Equal(prev, o.resp), "%s: cached answer differs from the fresh one for %s", q.cat, key)
	} else {
		c.first[key] = o.resp
	}
	return true
}

// phase is one stretch of open-loop traffic and what it measured.
type phase struct {
	reqs []mixReq
	outs []outcome
	ok   []bool
}

func (c *checker) run(client *http.Client, d *daemon, seed int64, base, n int, rate float64) phase {
	reqs := genMix(seed, base, n)
	outs := openLoop(client, d.url, reqs, arrivals(seed, base, n, rate), runtime.NumCPU())
	ok := make([]bool, n)
	for i := range reqs {
		ok[i] = c.take(reqs[i], &outs[i])
	}
	return phase{reqs, outs, ok}
}

// latencies returns each request's latency from its due time in seconds; a
// failed request counts as missing the limit.
func (p phase) latencies() []float64 {
	out := make([]float64, len(p.outs))
	for i, o := range p.outs {
		out[i] = o.latency.Seconds()
		if !p.ok[i] {
			out[i] = math.Max(out[i], 2*serveLimit.Seconds())
		}
	}
	return out
}

// service returns the send-to-answer times of category cat; faulted runs
// count as runs.
func (p phase) service(cat string) []float64 {
	var out []float64
	for i, o := range p.outs {
		if p.reqs[i].cat == cat || (cat == "run" && p.reqs[i].cat == "faults") {
			out = append(out, o.done.Sub(o.sent).Seconds())
		}
	}
	return out
}

func newClient() *http.Client {
	conns := runtime.NumCPU()
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		},
	}
}

// runServeMix is sage-serve under an open loop of the seeded request mix:
// the one workload where per-request set-up, the twin, the response cache,
// tracing, faults and streaming all sit on the latency path.
func runServeMix(cfg *config) (*report, error) {
	r := newReport()
	layerDefaults(r)
	client := newClient()
	defer client.CloseIdleConnections()

	// Set-up is server start to the first healthy /v1/health. It is sampled
	// before, between and after the measured phases, on a second daemon
	// while the measured one idles, so the median covers the whole run.
	var setupSecs []float64
	setups := func(k int) error {
		for i := 0; i < k; i++ {
			t := time.Now()
			d, err := startDaemon(client)
			if err != nil {
				return err
			}
			setupSecs = append(setupSecs, time.Since(t).Seconds())
			d.stop()
		}
		return nil
	}
	if err := setups(20); err != nil {
		return nil, err
	}
	d, err := startDaemon(client)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	defer func() { r.setN("setup_s", median(setupSecs), len(setupSecs), 50) }()

	c := &checker{r: r, first: map[string][]byte{}}
	// Warm-up: answer the hot set once, then a second of untimed traffic.
	var virtual []float64
	for _, h := range hotSet {
		body, _ := json.Marshal(&h) // plain data cannot fail to marshal
		var o outcome
		o.status, o.resp, o.cache, o.err = post(client, d.url, body)
		if c.take(mixReq{cat: "hot", body: body}, &o) {
			var resp serve.Response
			_ = json.Unmarshal(o.resp, &resp) // take has decoded it once already
			virtual = append(virtual, float64(resp.ElapsedNs)/1e6)
		}
	}
	r.setN("virtual_ms", mean(virtual), len(virtual), 0)
	c.run(client, d, cfg.seed, 1_000_000, int(serveRate), serveRate)

	count := int(serveRate * cfg.seconds.Seconds() * 2 / 3)
	if cfg.trace {
		return r, serveLayers(cfg, r, c, client, d, count)
	}
	if err := setups(20); err != nil {
		return nil, err
	}
	fixed := c.run(client, d, cfg.seed, 0, count, serveRate)
	recheck(c, client, d, fixed)

	lat := fixed.latencies()
	good := 0
	for i, l := range lat {
		if fixed.ok[i] && l <= serveLimit.Seconds() {
			good++
		}
	}
	r.setN("req_p50_ms", 1000*median(lat), len(lat), 50)
	v, p, n := tail(lat)
	r.setN("req_p99_ms", 1000*v, n, p)
	r.setN("goodput_rps", serveRate*float64(good)/float64(len(lat)), len(lat), 0)
	svc := fixed.service("run")
	r.setN("run_s", median(svc), len(svc), 50)
	if err := setups(20); err != nil {
		return nil, err
	}

	rate, samples := ladder(cfg, c, client, d)
	r.setN("max_rps_at_slo", rate, samples, 0)
	return r, setups(20)
}

// recheck resends the fixed phase's last 20 fresh requests, whose answers
// are the newest in the response cache: each must now be a cache hit,
// byte-equal to its fresh answer.
func recheck(c *checker, client *http.Client, d *daemon, p phase) {
	checked := 0
	for i := len(p.reqs) - 1; i >= 0 && checked < 20; i-- {
		q := p.reqs[i]
		if q.cat == "hit" || !p.ok[i] {
			continue
		}
		checked++
		var o outcome
		o.status, o.resp, o.cache, o.err = post(client, d.url, q.body)
		if c.take(q, &o) {
			c.r.check(o.cache == "hit", "%s request repeated right after its answer was not a cache hit", q.cat)
		}
	}
}

// ladder offers each rate of ladderRates for a second's worth of requests
// per 15 s of run time, stopping at the first rate whose tail latency
// misses the limit or whose backlog is still draining after the limit. The
// result is the highest rate that met the limit, interpolated linearly in
// tail latency toward the first that missed it, so it moves smoothly with
// the latencies rather than jumping a whole rung.
func ladder(cfg *config, c *checker, client *http.Client, d *daemon) (float64, int) {
	rungSeconds := cfg.seconds.Seconds() / 15
	limit := serveLimit.Seconds()
	prevRate, prevTail := 0.0, 0.0
	samples := 0
	for k, rate := range ladderRates {
		n := max(int(rate*rungSeconds), 1)
		p := c.run(client, d, cfg.seed, 2_000_000+k*100_000, n, rate)
		samples += n
		t, pct, _ := tail(p.latencies())
		// A backlog still draining past the limit after the last arrival
		// fails the rate however the percentile reads.
		last := p.outs[n-1]
		lastDue := last.done.Add(-last.latency)
		for _, o := range p.outs {
			if drain := o.done.Sub(lastDue).Seconds(); drain > limit {
				t = math.Max(t, drain)
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: ladder %4.0f/s: p%v %.1fms over %d requests\n", rate, pct, 1000*t, n)
		if t > limit {
			return prevRate + (rate-prevRate)*(limit-prevTail)/(t-prevTail), samples
		}
		prevRate, prevTail = rate, t
	}
	return prevRate, samples
}

// setServeCounters reports the daemon's counters over a stretch of traffic,
// from two /v1/stats answers.
func setServeCounters(r *report, s0, s1 serve.Stats) {
	hits, misses := s1.CacheHits-s0.CacheHits, s1.CacheMisses-s0.CacheMisses
	if hits+misses > 0 {
		r.set("serve.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	r.set("serve.shed", float64(s1.ShedRate-s0.ShedRate+s1.ShedQueue-s0.ShedQueue))
	r.set("serve.canceled", float64(s1.Canceled-s0.Canceled))
}

// serveLayers is the traced serve-mix run: an untraced half and a traced
// half (CPU profile, a span per request) at the fixed rate, the daemon's
// counters and gauges over both, and the set-up layers timed on the mix's
// own fresh shapes.
func serveLayers(cfg *config, r *report, c *checker, client *http.Client, d *daemon, count int) error {
	s0, err := d.stats(client)
	if err != nil {
		return err
	}
	g := sampleGauges(d.srv)
	plain := c.run(client, d, cfg.seed, 0, count/2, serveRate)
	g0 := readGo()
	var traced phase
	err = profile(cfg, r, func() error {
		traced = c.run(client, d, cfg.seed, count/2, count-count/2, serveRate)
		return nil
	})
	g.finish()
	if err != nil {
		return err
	}
	setGoLayer(r, g0, readGo(), len(traced.reqs))
	s1, err := d.stats(client)
	if err != nil {
		return err
	}
	setServeCounters(r, s0, s1)
	r.set("serve.queue_depth_max", float64(g.queueMax))
	r.set("serve.busy_workers_mean", mean(g.busy))
	// Cache reads are most of the mix and cost the same in both halves.
	r.set("trace.overhead_frac", median(traced.service("hit"))/median(plain.service("hit"))-1)

	var lags []float64
	for _, p := range []phase{plain, traced} {
		for _, o := range p.outs {
			lags = append(lags, o.lag.Seconds())
		}
	}
	v, _, _ := tail(lags)
	r.set("loadgen.lag_ms_p99", 1000*v)
	r.set("loadgen.sent", float64(len(lags)))

	both := phase{
		reqs: append(append([]mixReq{}, plain.reqs...), traced.reqs...),
		outs: append(append([]outcome{}, plain.outs...), traced.outs...),
	}
	for cat, name := range map[string]string{
		"hit": "serve.hit_p50_ms", "run": "serve.run_p50_ms", "estimate": "serve.estimate_p50_ms",
		"map": "serve.map_p50_ms", "traced": "serve.traced_p50_ms", "stream": "serve.stream_p50_ms",
	} {
		if s := both.service(cat); len(s) > 0 {
			r.set(name, 1000*median(s))
		}
	}
	first, last := traced.outs[0].sent, traced.outs[0].done
	for _, o := range traced.outs {
		if o.done.After(last) {
			last = o.done
		}
	}
	root := cfg.sp.add("traced-phase", first, last, -1)
	for i, o := range traced.outs {
		cfg.sp.add("serve."+traced.reqs[i].cat, o.sent, o.done, root)
	}
	return setupLayersFromMix(r, cfg.sp, traced.reqs)
}

// setupLayersFromMix times, outside the daemon, the set-up a cache miss pays
// inside it: model build, mapping and gluegen for the mix's fresh batch-run
// shapes, and the twin for its estimates.
func setupLayersFromMix(r *report, sp *spans, reqs []mixReq) error {
	builders := map[string]func(n, threads int) (*model.App, error){
		"fft2d": apps.FFT2D, "cornerturn": apps.CornerTurn, "stap": apps.STAP,
	}
	pl := platforms.CSPI()
	timed, threads := 0, 0
	for _, q := range reqs {
		if (q.cat != "run" && q.cat != "estimate") || timed == 40 {
			continue
		}
		timed++
		var req serve.Request
		if err := json.Unmarshal(q.body, &req); err != nil {
			return err
		}
		parent := sp.begin("fresh-setup", -1)
		build := builders[req.App]
		t, err := buildTables(sp, parent, func() (*model.App, error) { return build(req.N, req.Threads) },
			model.SpreadParallel, pl, req.Nodes)
		if err != nil {
			return err
		}
		threads += tableThreads(t)
		if req.Estimate {
			var ev *twin.Evaluator
			if err := sp.call("twin.build", parent, func() error {
				ev, err = twin.NewEvaluator(t, pl)
				return err
			}); err != nil {
				return err
			}
			_ = sp.call("twin.predict", parent, func() error {
				ev.Predict(twin.Options{Iterations: req.Protocol.Iterations})
				return nil
			})
		}
		sp.end(parent)
	}
	setSetupLayers(r, sp)
	if timed > 0 {
		r.set("gluegen.threads", float64(threads)/float64(timed))
	}
	return nil
}
