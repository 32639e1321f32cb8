package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/digest"
	"asmp/internal/figures"
	"asmp/internal/resultcache"
	"asmp/internal/sched"
	"asmp/internal/server"
	"asmp/internal/workload"
	"asmp/internal/xrand"
)

// Request classes of the serve-mixed mix, with their counts in every
// block of mixBlock consecutive requests (the order inside a block is
// seeded), so every seed offers the same load.
var mixClasses = []struct {
	name  string
	count int
}{
	{"memo", 10},  // /v1/run of a cell already in the memo
	{"disk", 3},   // /v1/run of a cell setup wrote to disk only
	{"sweep", 3},  // a small /v1/sweep of grid cells (disk, then memo)
	{"figure", 4}, // a quick /v1/figure whose cells are warm
}

// mixBlock is the number of requests in one block of the mix.
const mixBlock = 20

// newEvery places one /v1/run of a cell nobody has simulated (simulate,
// then publish to the disk cache) in every newEvery requests. Publishes
// sync to disk, and on the measuring host the sync took from under 1 ms
// to over 15 ms depending on the minute; kept under 1% of requests,
// they exercise the write path without deciding the p99 on their own.
const newEvery = 200

// dupShare is the share of new-cell and sweep requests sent twice back
// to back, so the server coalesces the pair.
const dupShare = 0.25

// lightModels are the models whose cells cost about a millisecond;
// served sweeps and new cells use only these.
var lightModels = map[string]bool{"tpch": true, "multiprog": true, "pmake": true, "omp-swim": true, "omp-art": true}

// request is one planned request.
type request struct {
	due      time.Duration // from the window start
	class    string
	endpoint string // run | sweep | figure
	path     string
	body     []byte // nil for GET
	cell     int    // grid cell (memo, disk)
	spec     core.RunSpec
	sweep    sweepReq
	figure   string
}

// sweepReq is the body of a /v1/sweep request, and what the benchmark
// needs to re-simulate it.
type sweepReq struct {
	Workload string   `json:"workload"`
	Configs  []string `json:"configs"`
	Runs     int      `json:"runs"`
	Policy   string   `json:"policy"`
	Seed     uint64   `json:"seed"`
}

type runReq struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`
}

// response is what the client saw for one request.
type response struct {
	status int
	body   []byte
	err    string
	latMs  float64 // completion minus due time
}

// servePlan is the seeded input of one serve-mixed run.
type servePlan struct {
	reqs    []request
	memo    []int // grid cells primed into the memo
	figSeed uint64
}

// sweepConfigs is how many configs a served sweep covers: the first
// ones of the grid, so with the grid's base seed its cells are grid
// cells (RunSeed takes the config's index in the request).
const sweepConfigs = 2

// planServe derives the request schedule from the seed.
func (b *bench) planServe(g *grid) (servePlan, error) {
	r := xrand.New(b.seed).Split()
	var p servePlan
	p.figSeed = 1 + r.Uint64()%1000
	// Sweeps and new cells use the light models' plain columns, so the
	// latency tail is set by the server, not by which heavy cells a
	// seed happens to draw.
	var light []column
	for _, c := range g.cols {
		if c.plan == nil && lightModels[c.wl.Name()] {
			light = append(light, c)
		}
	}
	// /v1/run takes no fault plan, so memo and disk cells come from the
	// plain columns; cells that sweeps read are left out.
	var plain []int
	for i := 0; i < g.cells(); i++ {
		col := g.cols[i/g.perCol()]
		cfg := i % g.perCol() / g.runs
		if col.plan == nil && !(lightModels[col.wl.Name()] && cfg < sweepConfigs) {
			plain = append(plain, i)
		}
	}
	if len(plain) < 2 || len(light) == 0 {
		return p, fmt.Errorf("grid too small to serve: %d plain cells, %d light columns", len(plain), len(light))
	}
	perm := r.Perm(len(plain))
	nMemo := min(b.sc.memoCells, len(plain)-1)
	for _, j := range perm[:nMemo] {
		p.memo = append(p.memo, plain[j])
	}
	disk := perm[nMemo:]
	var block []string
	for _, c := range mixClasses {
		for i := 0; i < c.count; i++ {
			block = append(block, c.name)
		}
	}
	figs := r.Perm(len(b.sc.figures))
	ticks := max(1, int(b.sc.rate*b.seconds+0.5))
	for t := 0; t < ticks; t++ {
		due := time.Duration(float64(t) / b.sc.rate * float64(time.Second))
		if t%mixBlock == 0 {
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		rq := request{due: due, class: block[t%mixBlock]}
		if t%newEvery == newEvery/2 {
			rq.class = "new"
		}
		switch rq.class {
		case "memo":
			rq.cell = p.memo[r.Intn(len(p.memo))]
			rq.spec = g.spec(rq.cell)
		case "disk":
			rq.cell = plain[disk[0]]
			disk = append(disk[1:], disk[0]) // each disk cell once, then wrap
			rq.spec = g.spec(rq.cell)
		case "new":
			col := light[r.Intn(len(light))]
			rq.spec = core.RunSpec{
				Workload: col.wl,
				Config:   g.configs[r.Intn(len(g.configs))],
				Sched:    sched.Defaults(col.pol),
				Seed:     r.Uint64() | 1,
			}
		case "sweep":
			col := light[r.Intn(len(light))]
			rq.sweep = sweepReq{Workload: col.wl.Name(), Runs: g.runs, Policy: col.pol.String(), Seed: g.base}
			for _, c := range g.configs[:min(sweepConfigs, len(g.configs))] {
				rq.sweep.Configs = append(rq.sweep.Configs, c.String())
			}
		case "figure":
			rq.figure = b.sc.figures[figs[0]]
			figs = append(figs[1:], figs[0]) // every figure in turn
		}
		if err := rq.encode(p.figSeed); err != nil {
			return p, err
		}
		p.reqs = append(p.reqs, rq)
		if (rq.class == "new" || rq.class == "sweep") && r.Bool(dupShare) {
			p.reqs = append(p.reqs, rq)
		}
	}
	return p, nil
}

// encode fills the request's endpoint, path and body.
func (rq *request) encode(figSeed uint64) error {
	var v any
	switch rq.class {
	case "memo", "disk", "new":
		rq.endpoint, rq.path = "run", "/v1/run"
		v = runReq{Workload: rq.spec.Workload.Name(), Config: rq.spec.Config.String(),
			Policy: rq.spec.Sched.Policy.String(), Seed: rq.spec.Seed}
	case "sweep":
		rq.endpoint, rq.path = "sweep", "/v1/sweep"
		v = rq.sweep
	case "figure":
		rq.endpoint = "figure"
		rq.path = fmt.Sprintf("/v1/figure/%s?quick=1&seed=%d", rq.figure, figSeed)
		return nil
	}
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode request: %w", err)
	}
	rq.body = body
	return nil
}

// liveServer is an in-process asmp-serve on a loopback port.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

func (b *bench) startServer() (*liveServer, error) {
	srv := server.New(server.Options{Workers: b.workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if b.wrap != nil {
		h = b.wrap(h)
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop drains the server, shuts the HTTP layer down and waits for the
// serving goroutine.
func (ls *liveServer) stop() error {
	ls.srv.Drain()
	if err := ls.hs.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	if err := <-ls.done; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// runServeMixed drives an in-process asmp-serve (default options:
// result cache attached, no journal dir) over loopback in an open loop
// at a fixed rate, with the seeded request mix.
func runServeMixed(b *bench) (*outcome, error) {
	out := &outcome{}
	var l layers
	core.SetDefaultWorkers(b.workers)
	os.Unsetenv(resultcache.EnvDir)
	defer core.SetResultCache(nil)
	root := b.spans.start("workload", 0, b.workload)
	var (
		g      *grid
		plan   servePlan
		fill   pass
		dir    string
		bodies map[string]string
		ls     *liveServer
	)
	setup, err := b.setupTimes(func(rep int) error {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return err
			}
			ls = nil
		}
		var err error
		if g, err = newGrid(b.sc, gridSeed(b.seed)); err != nil {
			return err
		}
		if plan, err = b.planServe(g); err != nil {
			return err
		}
		core.ResetMemo()
		dir = filepath.Join(b.dir, fmt.Sprintf("cache-%d", rep))
		if err := core.AttachResultCache(dir, 0); err != nil {
			return err
		}
		// Every grid cell goes to disk; then the memo forgets them.
		prev := fill.digests
		fill = b.runPass(g, root)
		if len(fill.errs) > 0 {
			return fmt.Errorf("cache fill: %s", fill.errs[0])
		}
		if prev != nil {
			out.check(foldGrid(prev) == foldGrid(fill.digests), "cache fill %d differs from fill 0", rep)
		}
		core.ResetMemo()
		// Reference figure bodies, rendered in-process; this also warms
		// the figures' cells.
		bodies = map[string]string{}
		for _, id := range b.sc.figures {
			if bodies[id], err = renderFigure(id, figures.Options{Quick: true, Seed: plan.figSeed}); err != nil {
				return err
			}
		}
		for _, c := range plan.memo {
			if _, err := core.ExecuteSafe(g.spec(c)); err != nil {
				return fmt.Errorf("memo prime: %w", err)
			}
		}
		ls, err = b.startServer()
		return err
	})
	if err != nil {
		if ls != nil {
			ls.stop()
		}
		return nil, err
	}
	b.checkReference(out, foldGrid(fill.digests))
	out.note("load", fmt.Sprintf("open loop, fixed interval, %g requests/s over %d connections", b.sc.rate, b.conns))
	out.note("rate_rps", fmt.Sprint(b.sc.rate))
	out.note("latency_limit_ms", fmt.Sprint(b.sc.serveLimitMs))
	out.note("requests", fmt.Sprint(len(plan.reqs)))

	w := b.driveOpenLoop(ls, plan.reqs, root)
	st := ls.srv.StatsSnapshot()
	if err := ls.stop(); err != nil {
		return nil, err
	}
	good := b.verifyServed(g, plan, fill.digests, bodies, w.resps, out)

	lat := make([]float64, len(w.resps))
	byEndpoint := map[string][]float64{}
	for i, r := range w.resps {
		lat[i] = r.latMs
		ep := plan.reqs[i].endpoint
		byEndpoint[ep] = append(byEndpoint[ep], r.latMs)
	}
	cells := float64(w.memo.Hits + w.memo.Misses)
	out.endToEnd = []metric{
		{"cells_per_s", cells / w.secs, "cells/s"},
		{"goodput_rps", float64(good) / w.secs, "req/s"},
		{"latency_p50_ms", quantile(lat, 0.5), "ms"},
		{"peak_heap_mb", w.heapMiB, "MiB"},
		{"setup_s", setup, "s"},
	}
	b.spans.end(root)
	if !b.traced {
		return out, nil
	}
	l.serverMs = map[string][2]float64{}
	for _, ep := range endpoints {
		l.serverMs[ep] = [2]float64{quantile(byEndpoint[ep], 0.5), quantile(byEndpoint[ep], 0.99)}
	}
	l.serverCoalesced = float64(st.Coalesced)
	l.serverShed = float64(st.Shed)
	l.serverExpired = float64(st.Expired)
	l.serverQueueMax = float64(w.queueMax)
	l.genLagP99Ms = quantile(w.lags, 0.99)
	l.addCounters(w.memo.Hits, w.memo.Misses, w.led, w.coalesced, w.disk)
	l.cacheBytes = cacheBytes(dir)
	if cells > 0 {
		l.allocPerCell = float64(w.alloc) / cells
	}
	l.setLatency(lat)

	l.probeEngine(b.seed, b.sc.probeScaleDown())
	probeRender(b.sc.figures, figures.Options{Quick: true, Seed: plan.figSeed}, bodies, out, &l)
	var specs []core.RunSpec
	var gridIdx []int
	seen := map[int]bool{}
	for _, rq := range plan.reqs {
		if rq.endpoint == "run" && len(specs) < b.sc.traceCells {
			specs = append(specs, rq.spec)
		}
		if (rq.class == "memo" || rq.class == "disk") && !seen[rq.cell] && len(gridIdx) < b.sc.traceCells {
			seen[rq.cell] = true
			gridIdx = append(gridIdx, rq.cell)
		}
	}
	sp := b.spans.start("replay", root, "traced cells")
	b.traceCells(specs, sp, out, &l)
	b.spans.end(sp)
	want := make([]digest.Digest, len(gridIdx))
	for i, c := range gridIdx {
		want[i] = fill.digests[c]
	}
	results := probeWarm(gridSpecs(g, gridIdx), want, out, &l)
	if err := probeCache(filepath.Join(b.dir, "probe-cache"), results, out, &l); err != nil {
		return nil, err
	}
	l.failedShare = failedShare(out)
	out.perLayer = l.metrics()
	return out, nil
}

// openLoop is what the client side of one serve-mixed window saw.
type openLoop struct {
	resps     []response
	lags      []float64 // generator lateness per request, ms
	secs      float64
	heapMiB   float64
	alloc     uint64
	queueMax  int
	memo      core.MemoReport // delta over the window
	led       uint64
	coalesced uint64
	disk      resultcache.Stats
}

// driveOpenLoop sends every request at its due time, whatever the
// state of earlier ones, over b.conns connections, and times each from
// its due time to the end of its response body.
func (b *bench) driveOpenLoop(ls *liveServer, reqs []request, root int) openLoop {
	w := openLoop{resps: make([]response, len(reqs)), lags: make([]float64, len(reqs))}
	tr := &http.Transport{MaxConnsPerHost: b.conns, MaxIdleConnsPerHost: b.conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	var qmu sync.Mutex
	hs := startHeapSampler(5*time.Millisecond, func() {
		d := ls.srv.StatsSnapshot().QueueDepth
		qmu.Lock()
		w.queueMax = max(w.queueMax, d)
		qmu.Unlock()
	})
	m0 := core.MemoStats()
	led0, co0 := core.FlightStats()
	a0 := allocBytes()

	// The queue holds every request, so the generator never blocks on a
	// slow server: that is what makes the loop open.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	t0 := now()
	for c := 0; c < b.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := t0.Add(reqs[i].due)
				w.resps[i] = b.send(client, ls.base, reqs[i], due)
				b.spans.add("request", root, fmt.Sprintf("req=%d %s %s", i, reqs[i].class, reqs[i].path), due, now())
			}
		}()
	}
	for i := range reqs {
		due := t0.Add(reqs[i].due)
		sleepUntil(due)
		w.lags[i] = ms(now().Sub(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	w.secs = now().Sub(t0).Seconds()
	w.alloc = allocBytes() - a0
	w.heapMiB = hs.finish()
	m1 := core.MemoStats()
	led1, co1 := core.FlightStats()
	w.memo = core.MemoReport{Hits: m1.Hits - m0.Hits, Misses: m1.Misses - m0.Misses}
	w.led, w.coalesced = led1-led0, co1-co0
	w.disk = diskDelta(m1.Disk, m0.Disk)
	return w
}

// send performs one request and times it from due.
func (b *bench) send(client *http.Client, base string, rq request, due time.Time) response {
	method := http.MethodGet
	var body io.Reader
	if rq.body != nil {
		method, body = http.MethodPost, bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(method, base+rq.path, body)
	if err != nil {
		return response{err: err.Error(), latMs: ms(now().Sub(due))}
	}
	resp, err := client.Do(req)
	if err != nil {
		return response{err: err.Error(), latMs: ms(now().Sub(due))}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := response{status: resp.StatusCode, body: data, latMs: ms(now().Sub(due))}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// verifyServed checks every response against an in-process reference
// and returns how many were correct 200s within the latency limit.
// Grid cells are checked against the setup's cold fill; new cells and
// sweeps are re-simulated now, through core.ExecuteSafe with an Observe
// hook so neither the memo nor the disk cache can answer.
func (b *bench) verifyServed(g *grid, plan servePlan, fill []digest.Digest, bodies map[string]string, resps []response, out *outcome) int {
	direct := b.resimulate(plan.reqs)
	good := 0
	for i, rq := range plan.reqs {
		r := resps[i]
		ok := false
		switch {
		case r.err != "" || r.status != http.StatusOK:
			out.fail("request %d (%s %s): status %d %s %s", i, rq.class, rq.path, r.status, r.err, bytes.TrimSpace(r.body))
			out.attempted++
			continue
		case rq.endpoint == "figure":
			ok = string(r.body) == bodies[rq.figure]
			out.check(ok, "request %d: figure %s body differs from the in-process rendering", i, rq.figure)
		case rq.endpoint == "run":
			want := direct[specKey(rq.spec)].Digest
			if rq.class != "new" {
				want = fill[rq.cell]
			}
			var got struct {
				Digest string `json:"digest"`
			}
			err := json.Unmarshal(r.body, &got)
			ok = err == nil && got.Digest == want.String()
			out.check(ok, "request %d: /v1/run %s %s digest %q, want %s", i, rq.spec.Workload.Name(), rq.spec.Config, got.Digest, want)
		case rq.endpoint == "sweep":
			ok = checkSweep(rq.sweep, r.body, direct)
			out.check(ok, "request %d: /v1/sweep %s %v values differ from direct execution", i, rq.sweep.Workload, rq.sweep.Configs)
		}
		if ok && r.latMs <= b.sc.serveLimitMs {
			good++
		}
	}
	return good
}

// specKey identifies a cell for the re-simulation table.
func specKey(s core.RunSpec) string {
	return fmt.Sprintf("%s|%s|%s|%d", s.Workload.Name(), s.Config, s.Sched.Policy, s.Seed)
}

// sweepCells expands a sweep request into its cells, in response
// order.
func sweepCells(s sweepReq) ([]core.RunSpec, error) {
	wl, err := workload.New(s.Workload)
	if err != nil {
		return nil, err
	}
	pol, err := sched.ParsePolicy(s.Policy)
	if err != nil {
		return nil, err
	}
	var specs []core.RunSpec
	for ci, cs := range s.Configs {
		cfg, err := cpu.ParseConfig(cs)
		if err != nil {
			return nil, err
		}
		for r := 0; r < s.Runs; r++ {
			specs = append(specs, core.RunSpec{Workload: wl, Config: cfg, Sched: sched.Defaults(pol), Seed: core.RunSeed(s.Seed, ci, r)})
		}
	}
	return specs, nil
}

// resimulate executes every new cell and every sweep cell of reqs
// once, on the host workers, bypassing the memo and the disk cache.
func (b *bench) resimulate(reqs []request) map[string]workload.Result {
	var specs []core.RunSpec
	seen := map[string]bool{}
	add := func(s core.RunSpec) {
		if k := specKey(s); !seen[k] {
			seen[k] = true
			specs = append(specs, s)
		}
	}
	for _, rq := range reqs {
		switch rq.class {
		case "new":
			add(rq.spec)
		case "sweep":
			cells, err := sweepCells(rq.sweep)
			if err != nil {
				continue // checkSweep fails this request
			}
			for _, s := range cells {
				add(s)
			}
		}
	}
	results := make([]workload.Result, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := specs[i]
				s.Observe = func(*sched.Scheduler) {}
				res, err := core.ExecuteSafe(s)
				if err == nil {
					results[i] = res
				}
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	out := make(map[string]workload.Result, len(specs))
	for i, s := range specs {
		out[specKey(s)] = results[i]
	}
	return out
}

// checkSweep compares a served sweep's per-run values with the direct
// executions, bit for bit, and requires no failed run.
func checkSweep(s sweepReq, body []byte, direct map[string]workload.Result) bool {
	var got struct {
		Failed  int `json:"failed"`
		Configs []struct {
			Values []json.RawMessage `json:"values"`
		} `json:"configs"`
	}
	if err := json.Unmarshal(body, &got); err != nil || got.Failed != 0 || len(got.Configs) != len(s.Configs) {
		return false
	}
	cells, err := sweepCells(s)
	if err != nil {
		return false
	}
	k := 0
	for _, c := range got.Configs {
		if len(c.Values) != s.Runs {
			return false
		}
		for _, raw := range c.Values {
			v, err := strconv.ParseFloat(string(raw), 64)
			want, ok := direct[specKey(cells[k])]
			if err != nil || !ok || want.Digest == 0 || v != want.Value {
				return false
			}
			k++
		}
	}
	return true
}
