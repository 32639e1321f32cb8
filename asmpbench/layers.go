package main

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"asmp/internal/core"
	"asmp/internal/digest"
	"asmp/internal/figures"
	"asmp/internal/resultcache"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/workload"
	"asmp/internal/xrand"
)

// layers holds the per-layer metrics of a traced run. A layer the
// workload does not exercise keeps zeros (sweep-cold never touches
// resultcache or server, for instance).
type layers struct {
	simtimeStepNs, handoffNs         float64
	schedEvents, schedDispatches     float64
	schedMigrations, schedNsPerEvent float64
	digestFoldNs                     float64
	expNs, lognormalNs               float64
	cellColdMs, cellWarmUs           [2]float64 // p50, p99
	memoHits, memoMisses             float64
	flightLed, flightCoalesced       float64
	allocPerCell                     float64
	cacheGetUs, cachePutUs           float64
	cache                            resultcache.Stats
	cacheBytes                       float64
	renderMs                         float64
	serverMs                         map[string][2]float64 // endpoint → p50, p99
	serverCoalesced, serverShed      float64
	serverExpired, serverQueueMax    float64
	genLagP99Ms                      float64
	traceOverhead                    float64
	failedShare                      float64
	latencyP99Ms, latencySamples     float64
}

// setLatency records the tail and the sample count of the workload's
// latencies (columns or requests). The p99 is a per-layer figure, not
// an end-to-end one: on a shared 2-vCPU VM, stalls of tens of
// milliseconds hit about 1% of serve-mixed requests in some minutes and
// none in others, and the p99's spread over ten seeds reached 63%.
func (l *layers) setLatency(ms []float64) {
	l.latencyP99Ms = quantile(ms, 0.99)
	l.latencySamples = float64(len(ms))
}

// endpoints are the served endpoints with latency metrics.
var endpoints = []string{"figure", "run", "sweep"}

// metrics lists every per-layer metric in a fixed order.
func (l *layers) metrics() []metric {
	hitRatio := 0.0
	if n := l.cache.Hits + l.cache.Misses + l.cache.Refused; n > 0 {
		hitRatio = float64(l.cache.Hits) / float64(n)
	}
	m := []metric{
		{"simtime.schedule_step_ns", l.simtimeStepNs, "ns"},
		{"sim.handoff_ns", l.handoffNs, "ns"},
		{"sched.events", l.schedEvents, "count"},
		{"sched.dispatches", l.schedDispatches, "count"},
		{"sched.migrations", l.schedMigrations, "count"},
		{"sched.host_ns_per_event", l.schedNsPerEvent, "ns"},
		{"digest.fold_ns_per_event", l.digestFoldNs, "ns"},
		{"xrand.exp_ns", l.expNs, "ns"},
		{"xrand.lognormal_ns", l.lognormalNs, "ns"},
		{"core.cell_cold_ms.p50", l.cellColdMs[0], "ms"},
		{"core.cell_cold_ms.p99", l.cellColdMs[1], "ms"},
		{"core.cell_warm_us.p50", l.cellWarmUs[0], "us"},
		{"core.cell_warm_us.p99", l.cellWarmUs[1], "us"},
		{"core.memo_hits", l.memoHits, "count"},
		{"core.memo_misses", l.memoMisses, "count"},
		{"core.flight_led", l.flightLed, "count"},
		{"core.flight_coalesced", l.flightCoalesced, "count"},
		{"core.alloc_bytes_per_cell", l.allocPerCell, "B"},
		{"resultcache.get_hit_us", l.cacheGetUs, "us"},
		{"resultcache.put_us", l.cachePutUs, "us"},
		{"resultcache.hits", float64(l.cache.Hits), "count"},
		{"resultcache.misses", float64(l.cache.Misses), "count"},
		{"resultcache.stored", float64(l.cache.Stored), "count"},
		{"resultcache.refused", float64(l.cache.Refused), "count"},
		{"resultcache.evicted", float64(l.cache.Evicted), "count"},
		{"resultcache.hit_ratio", hitRatio, "ratio"},
		{"resultcache.bytes", l.cacheBytes, "B"},
		{"figures.render_ms", l.renderMs, "ms"},
	}
	for _, ep := range endpoints {
		v := l.serverMs[ep]
		m = append(m,
			metric{"server.latency_ms." + ep + ".p50", v[0], "ms"},
			metric{"server.latency_ms." + ep + ".p99", v[1], "ms"})
	}
	return append(m,
		metric{"server.coalesced", l.serverCoalesced, "count"},
		metric{"server.shed", l.serverShed, "count"},
		metric{"server.expired", l.serverExpired, "count"},
		metric{"server.queue_depth_max", l.serverQueueMax, "count"},
		metric{"bench.latency_p99_ms", l.latencyP99Ms, "ms"},
		metric{"bench.generator_lag_p99_ms", l.genLagP99Ms, "ms"},
		metric{"bench.trace_overhead_share", l.traceOverhead, "ratio"},
		metric{"bench.failed_share", l.failedShare, "ratio"},
		metric{"bench.latency_samples", l.latencySamples, "count"},
	)
}

// counters folds the core and disk-cache counters accumulated over the
// window into l.
func (l *layers) addCounters(memoHits, memoMisses, led, coalesced uint64, disk resultcache.Stats) {
	l.memoHits += float64(memoHits)
	l.memoMisses += float64(memoMisses)
	l.flightLed += float64(led)
	l.flightCoalesced += float64(coalesced)
	l.cache.Hits += disk.Hits
	l.cache.Misses += disk.Misses
	l.cache.Stored += disk.Stored
	l.cache.Refused += disk.Refused
	l.cache.Evicted += disk.Evicted
	l.cache.StoreErrors += disk.StoreErrors
}

// diskDelta is after minus before, counter by counter.
func diskDelta(after, before resultcache.Stats) resultcache.Stats {
	return resultcache.Stats{
		Hits:        after.Hits - before.Hits,
		Misses:      after.Misses - before.Misses,
		Refused:     after.Refused - before.Refused,
		Stored:      after.Stored - before.Stored,
		StoreErrors: after.StoreErrors - before.StoreErrors,
		Evicted:     after.Evicted - before.Evicted,
	}
}

// diskStats returns the attached cache's counters (zero when none).
func diskStats() resultcache.Stats { return core.MemoStats().Disk }

// ---- engine probes: workload-independent micro-measurements ----

// probeReps is how many batches each probe times; the median is kept.
const probeReps = 5

// timePerOp runs batch probeReps times and returns the median wall
// nanoseconds per operation.
func timePerOp(ops int, batch func()) float64 {
	var per []float64
	for i := 0; i < probeReps; i++ {
		t0 := now()
		batch()
		per = append(per, float64(now().Sub(t0))/float64(ops))
	}
	return median(per)
}

// nopHandler is the simtime probe's event handler.
type nopHandler struct{ n int }

func (h *nopHandler) HandleEvent(int, any) { h.n++ }

// probeEngine fills the engine probes: one simtime schedule+step, one
// proc Sleep round trip through a bare sim.Env, one exponential and one
// lognormal draw.
func (l *layers) probeEngine(seed uint64, scaleDown int) {
	n := 200000 / scaleDown
	l.simtimeStepNs = timePerOp(n, func() {
		var q simtime.Queue
		h := &nopHandler{}
		for i := 0; i < n; i++ {
			q.AfterCall(simtime.Microsecond, h, 0, nil)
			q.Step()
		}
	})
	m := 50000 / scaleDown
	l.handoffNs = timePerOp(m, func() {
		env := sim.NewEnv(seed)
		env.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < m; i++ {
				p.Sleep(simtime.Microsecond)
			}
		})
		env.Run()
		env.Close()
	})
	r := xrand.New(seed)
	sink := 0.0
	l.expNs = timePerOp(n, func() {
		for i := 0; i < n; i++ {
			sink += r.Exp(1)
		}
	})
	l.lognormalNs = timePerOp(n, func() {
		for i := 0; i < n; i++ {
			sink += r.LogNormal(1, 0.5)
		}
	})
	probeSink = sink
}

// probeSink keeps the draw loops' results live.
var probeSink float64

// ---- traced cells ----

// tracedCell is one cell re-run twice: untraced (Observe only) and
// traced (counting tracer + Observe).
type tracedCell struct {
	untracedNs, tracedNs float64
	events               int
	stats                sched.Stats
	foldNs               float64
	err                  string
}

// traceCells re-runs specs through core.ExecuteSafe: first with an
// Observe hook only (which bypasses the memo and the disk cache, so the
// cell simulates cold), then with a recording trace.Tracer as well.
// The recorded events are replayed through digest.New() and must
// reproduce Result.Events exactly; both runs must agree on the digest.
func (b *bench) traceCells(specs []core.RunSpec, parent int, out *outcome, l *layers) {
	cells := make([]tracedCell, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cells[i] = b.traceCell(specs[i], parent, i)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()

	var cold []float64
	var untraced, traced, fold, events float64
	for i, c := range cells {
		out.check(c.err == "", "traced cell %d (%s %s): %s", i, specs[i].Workload.Name(), specs[i].Config, c.err)
		cold = append(cold, c.untracedNs/1e6)
		untraced += c.untracedNs
		traced += c.tracedNs
		fold += c.foldNs
		events += float64(c.events)
		l.schedDispatches += float64(c.stats.Dispatches)
		l.schedMigrations += float64(c.stats.Migrations)
	}
	l.schedEvents = events
	l.cellColdMs = [2]float64{quantile(cold, 0.5), quantile(cold, 0.99)}
	if events > 0 {
		l.schedNsPerEvent = untraced / events
		l.digestFoldNs = fold / events
	}
	if untraced > 0 {
		l.traceOverhead = traced/untraced - 1
	}
}

func (b *bench) traceCell(spec core.RunSpec, parent, i int) tracedCell {
	var c tracedCell
	attr := fmt.Sprintf("cell=%d %s %s %s seed=%d", i, spec.Workload.Name(), spec.Config, spec.Sched.Policy, spec.Seed)

	plain := spec
	plain.Observe = func(*sched.Scheduler) {}
	t0 := now()
	want, err := core.ExecuteSafe(plain)
	t1 := now()
	b.spans.add("cell", parent, attr+" untraced", t0, t1)
	c.untracedNs = float64(t1.Sub(t0))
	if err != nil {
		c.err = err.Error()
		return c
	}

	// Observe runs after the workload returns and before teardown: the
	// events recorded by then are exactly the ones Result.Events folds
	// (teardown's kills are traced too, but after the digest is taken).
	rec := &eventRecorder{}
	cut := -1
	traced := spec
	traced.Tracer = rec
	traced.Observe = func(s *sched.Scheduler) {
		c.stats = s.Stats()
		cut = len(rec.events)
	}
	t2 := now()
	res, err := core.ExecuteSafe(traced)
	t3 := now()
	b.spans.add("cell", parent, attr+" traced", t2, t3)
	c.tracedNs = float64(t3.Sub(t2))
	if err != nil {
		c.err = err.Error()
		return c
	}
	if cut < 0 {
		c.err = "Observe hook not called"
		return c
	}
	c.events = cut

	t4 := now()
	h := digest.New()
	h.Identity(spec.Workload.Name(), spec.Config.String(), spec.Sched.Policy.String(), spec.Seed)
	for _, ev := range rec.events[:cut] {
		h.Event(ev)
	}
	replayed := h.Sum()
	c.foldNs = float64(now().Sub(t4))
	switch {
	case replayed != res.Events:
		c.err = fmt.Sprintf("digest replay %s != Result.Events %s", replayed, res.Events)
	case res.Digest != want.Digest:
		c.err = fmt.Sprintf("traced digest %s != untraced %s", res.Digest, want.Digest)
	}
	return c
}

// sample picks up to n indices of [0, total) evenly spread.
func sample(total, n int) []int {
	if n > total {
		n = total
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i * total / n
	}
	return idx
}

// ---- warm cells and the disk cache ----

// probeWarm times each spec through core.ExecuteSafe on a fresh memo
// with the disk cache attached: every call is a verified disk read.
// It fails the check when a call is not served from disk.
// It returns the results, for the cache probe.
func probeWarm(specs []core.RunSpec, want []digest.Digest, out *outcome, l *layers) []workload.Result {
	core.ResetMemo()
	before := diskStats()
	var us []float64
	results := make([]workload.Result, len(specs))
	for i, s := range specs {
		t0 := now()
		res, err := core.ExecuteSafe(s)
		us = append(us, float64(now().Sub(t0))/1e3)
		out.check(err == nil && res.Digest == want[i], "warm cell %d: digest %s, want %s (err %v)", i, res.Digest, want[i], err)
		results[i] = res
	}
	d := diskDelta(diskStats(), before)
	out.check(d.Misses == 0 && d.Hits == uint64(len(specs)), "warm probe: %d disk hits and %d misses for %d cells", d.Hits, d.Misses, len(specs))
	l.cellWarmUs = [2]float64{quantile(us, 0.5), quantile(us, 0.99)}
	return results
}

// probeCache times resultcache.Put and GetChecked directly on a
// scratch cache directory, for each result.
func probeCache(dir string, results []workload.Result, out *outcome, l *layers) error {
	c, err := resultcache.Open(dir, 0)
	if err != nil {
		return fmt.Errorf("resultcache probe: %w", err)
	}
	var put, get []float64
	for i, r := range results {
		k := resultcache.KeyOf(fmt.Sprintf("asmpbench-probe|%d|%s", i, r.Digest))
		t0 := now()
		c.Put(k, r)
		t1 := now()
		got, ok, gerr := c.GetChecked(k)
		t2 := now()
		put = append(put, float64(t1.Sub(t0))/1e3)
		get = append(get, float64(t2.Sub(t1))/1e3)
		out.check(ok && gerr == nil && got.Digest == r.Digest, "resultcache probe %d: ok=%v err=%v", i, ok, gerr)
	}
	l.cachePutUs = median(put)
	l.cacheGetUs = median(get)
	return nil
}

// cacheBytes sums the sizes of the cache's entry files.
func cacheBytes(dir string) float64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := 0.0
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".cell") {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += float64(info.Size())
		}
	}
	return total
}

// renderFigure renders figure id exactly as asmp-serve and asmp-run do:
// every table's text followed by a blank line.
func renderFigure(id string, opt figures.Options) (string, error) {
	f, ok := figures.Get(id)
	if !ok {
		return "", fmt.Errorf("unknown figure %q", id)
	}
	var sb strings.Builder
	for _, t := range f.Run(opt) {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// probeRender times warm renders of each figure (its cells are in the
// memo) and checks each against the reference body.
func probeRender(ids []string, opt figures.Options, want map[string]string, out *outcome, l *layers) {
	var msv []float64
	for rep := 0; rep < 3; rep++ {
		for _, id := range ids {
			t0 := now()
			body, err := renderFigure(id, opt)
			msv = append(msv, ms(now().Sub(t0)))
			out.check(err == nil && body == want[id], "figure %s rendered in-process differs from its reference (err %v)", id, err)
		}
	}
	l.renderMs = median(msv)
}
