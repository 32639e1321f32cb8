package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"asmp/internal/core"
	"asmp/internal/digest"
	"asmp/internal/resultcache"
)

// sweepWindow is what the measured passes of a sweep workload saw.
type sweepWindow struct {
	rates   []float64 // cells per second, per pass
	colMs   []float64 // every column's latency, every pass
	good    int       // columns within the latency limit
	secs    float64   // time inside passes
	cells   int
	heapMiB float64
	alloc   uint64
}

// sweepPasses runs grid passes until the window has lasted b.seconds
// (at least one pass), each on a fresh memo, and checks each against
// want (nil: the first pass becomes the reference). afterPass runs
// after every pass with the disk-cache counter delta of that pass.
func (b *bench) sweepPasses(g *grid, root int, want []digest.Digest, limitMs float64, out *outcome, l *layers,
	afterPass func(d resultcache.Stats)) (sweepWindow, []digest.Digest) {
	var w sweepWindow
	a0 := allocBytes()
	t0 := now()
	deadline := t0.Add(time.Duration(b.seconds * float64(time.Second)))
	for n := 0; n == 0 || now().Before(deadline); n++ {
		core.ResetMemo()
		before := diskStats()
		sp := b.spans.start("pass", root, strconv.Itoa(n))
		p := b.runPass(g, sp)
		b.spans.end(sp)
		ms := core.MemoStats()
		led, coalesced := core.FlightStats()
		d := diskDelta(ms.Disk, before)
		l.addCounters(ms.Hits, ms.Misses, led, coalesced, d)
		afterPass(d)
		if want == nil {
			want = p.digests
		}
		checkPass(out, g, p, want)
		w.rates = append(w.rates, float64(len(p.digests))/p.elapsed)
		w.colMs = append(w.colMs, p.colMs...)
		for _, c := range p.colMs {
			if c <= limitMs {
				w.good++
			}
		}
		w.cells += len(p.digests)
		w.secs += p.elapsed
		// The pass's results are all held (memo, outcomes): collect and
		// read the live heap here, where it peaks, so the figure does
		// not depend on when the collector happened to run.
		runtime.GC()
		w.heapMiB = max(w.heapMiB, liveHeapMiB())
	}
	w.alloc = allocBytes() - a0
	return w, want
}

// sweepMetrics turns a window into the end-to-end metrics.
func sweepMetrics(w sweepWindow, setup float64) []metric {
	return []metric{
		{"cells_per_s", median(w.rates), "cells/s"},
		{"goodput_rps", float64(w.good) / w.secs, "req/s"},
		{"latency_p50_ms", quantile(w.colMs, 0.5), "ms"},
		{"peak_heap_mb", w.heapMiB, "MiB"},
		{"setup_s", setup, "s"},
	}
}

// warmUp runs one cell of every column (cold, then forgotten), so the
// runtime's pools and the workload models are initialised before any
// timing.
func warmUp(g *grid) error {
	for c := range g.cols {
		if _, err := core.ExecuteSafe(g.spec(c * g.perCol())); err != nil {
			return fmt.Errorf("warm-up %s: %w", g.cols[c].name, err)
		}
	}
	core.ResetMemo()
	return nil
}

// gridSpecs returns the specs of the sampled grid cells.
func gridSpecs(g *grid, idx []int) []core.RunSpec {
	specs := make([]core.RunSpec, len(idx))
	for i, j := range idx {
		specs[i] = g.spec(j)
	}
	return specs
}

// runSweepCold is the researcher's cold asmp-run path: every pass
// simulates the whole grid; no disk cache is attached, so nothing can
// be served warm.
func runSweepCold(b *bench) (*outcome, error) {
	out := &outcome{}
	var l layers
	core.SetDefaultWorkers(b.workers)
	// Never serve a cold pass warm: detach any cache and ignore an
	// inherited cache directory.
	os.Unsetenv(resultcache.EnvDir)
	core.SetResultCache(nil)
	root := b.spans.start("workload", 0, b.workload)
	var g *grid
	setup, err := b.setupTimes(func(int) error {
		var err error
		if g, err = newGrid(b.sc, gridSeed(b.seed)); err != nil {
			return err
		}
		core.ResetMemo()
		return warmUp(g)
	})
	if err != nil {
		return nil, err
	}
	out.check(core.ResultCache() == nil, "sweep-cold: a disk result cache is attached")
	out.note("grid", fmt.Sprintf("%d columns x %d configs x %d runs = %d cells", len(g.cols), len(g.configs), g.runs, g.cells()))
	out.note("latency_limit_ms", fmt.Sprint(b.sc.coldLimitMs))
	out.note("load", "closed loop: columns one after another, cells on the host worker")

	w, ref := b.sweepPasses(g, root, nil, b.sc.coldLimitMs, out, &l, func(resultcache.Stats) {
		ms := core.MemoStats()
		out.check(ms.Hits == 0, "sweep-cold: %d memo hits in a pass", ms.Hits)
		out.check(ms.Disk.Hits == 0, "sweep-cold: %d disk cache hits in a pass", ms.Disk.Hits)
	})
	b.checkReference(out, foldGrid(ref))
	b.spans.end(root)
	out.endToEnd = sweepMetrics(w, setup)
	if b.traced {
		l.allocPerCell = float64(w.alloc) / float64(w.cells)
		if err := b.traceSweep(g, root, out, &l, nil); err != nil {
			return nil, err
		}
		l.setLatency(w.colMs)
		l.failedShare = failedShare(out)
		out.perLayer = l.metrics()
	}
	return out, nil
}

// runSweepWarm is the same grid read back from a disk result cache
// that setup filled with a cold pass: the engine does no work, so the
// time goes to core's memo and flight and the verified disk read.
func runSweepWarm(b *bench) (*outcome, error) {
	out := &outcome{}
	var l layers
	core.SetDefaultWorkers(b.workers)
	os.Unsetenv(resultcache.EnvDir)
	root := b.spans.start("workload", 0, b.workload)
	var (
		g    *grid
		fill pass
		dir  string
	)
	setup, err := b.setupTimes(func(rep int) error {
		var err error
		if g, err = newGrid(b.sc, gridSeed(b.seed)); err != nil {
			return err
		}
		core.ResetMemo()
		dir = filepath.Join(b.dir, fmt.Sprintf("cache-%d", rep))
		if err := core.AttachResultCache(dir, 0); err != nil {
			return err
		}
		prev := fill.digests
		fill = b.runPass(g, root)
		if len(fill.errs) > 0 {
			return fmt.Errorf("cache fill: %s", fill.errs[0])
		}
		if prev != nil {
			out.check(foldGrid(prev) == foldGrid(fill.digests), "cache fill %d differs from fill 0", rep)
		}
		core.ResetMemo()
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer core.SetResultCache(nil)
	out.note("grid", fmt.Sprintf("%d columns x %d configs x %d runs = %d cells", len(g.cols), len(g.configs), g.runs, g.cells()))
	out.note("latency_limit_ms", fmt.Sprint(b.sc.warmLimitMs))
	out.note("load", "closed loop: columns one after another, every cell a disk read")
	b.checkReference(out, foldGrid(fill.digests))

	cells := uint64(g.cells())
	w, _ := b.sweepPasses(g, root, fill.digests, b.sc.warmLimitMs, out, &l, func(d resultcache.Stats) {
		out.check(d.Misses == 0 && d.Hits == cells, "sweep-warm: pass had %d disk hits and %d misses for %d cells", d.Hits, d.Misses, cells)
	})
	b.spans.end(root)
	out.endToEnd = sweepMetrics(w, setup)
	if b.traced {
		l.allocPerCell = float64(w.alloc) / float64(w.cells)
		l.cacheBytes = cacheBytes(dir)
		if err := b.traceSweep(g, root, out, &l, fill.digests); err != nil {
			return nil, err
		}
		l.setLatency(w.colMs)
		l.failedShare = failedShare(out)
		out.perLayer = l.metrics()
	}
	return out, nil
}

// traceSweep runs the traced run's per-layer probes for a sweep
// workload. With want set (a disk cache holds the grid) it also probes
// warm cells and the cache itself.
func (b *bench) traceSweep(g *grid, root int, out *outcome, l *layers, want []digest.Digest) error {
	l.probeEngine(b.seed, b.sc.probeScaleDown())
	idx := sample(g.cells(), b.sc.traceCells)
	specs := gridSpecs(g, idx)
	sp := b.spans.start("replay", root, "traced cells")
	b.traceCells(specs, sp, out, l)
	b.spans.end(sp)
	if want == nil {
		return nil
	}
	digests := make([]digest.Digest, len(idx))
	for i, j := range idx {
		digests[i] = want[j]
	}
	results := probeWarm(specs, digests, out, l)
	return probeCache(filepath.Join(b.dir, "probe-cache"), results, out, l)
}

// failedShare is failed over attempted.
func failedShare(out *outcome) float64 {
	if out.attempted == 0 {
		return 0
	}
	return float64(out.failed) / float64(out.attempted)
}
