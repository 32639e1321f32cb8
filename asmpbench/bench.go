package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// bench is one run's fixed settings.
type bench struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	sc        scale
	commit    string
	workers   int // core.SetDefaultWorkers
	conns     int // client connections (serve-mixed)
	reference map[string]string
	wrap      func(http.Handler) http.Handler
	dir       string // this run's scratch directory (removed at exit)
	spans     *recorder
}

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	endToEnd  []metric
	perLayer  []metric
	// setup records workload-specific settings (rate, latency limit,
	// grid digest) in print order.
	setup [][2]string
}

// maxFailureLines bounds the failure descriptions kept for printing.
const maxFailureLines = 20

// check counts one attempted check and records it as failed when ok is
// false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < maxFailureLines {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(key, value string) { o.setup = append(o.setup, [2]string{key, value}) }

// printSetup records the run's setting as comment lines ahead of the
// metrics.
func (b *bench) printSetup(w io.Writer, out *outcome) {
	rows := [][2]string{
		{"workload", b.workload},
		{"seed", fmt.Sprint(b.seed)},
		{"seconds", fmt.Sprint(b.seconds)},
		{"traced", fmt.Sprint(b.traced)},
		{"size", b.sc.name},
		{"host_cpu", hostCPU()},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"goos_goarch", runtime.GOOS + "/" + runtime.GOARCH},
		{"commit", b.commit},
		{"workers", fmt.Sprint(b.workers)},
		{"connections", fmt.Sprint(b.conns)},
	}
	rows = append(rows, out.setup...)
	for _, r := range rows {
		fmt.Fprintf(w, "# %-20s %s\n", r[0], r[1])
	}
}

// hostCPU names the host processor from /proc/cpuinfo, or "unknown".
func hostCPU() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// now reads the wall clock. Every timing in the benchmark goes through
// here; no value derived from it reaches a digest, journal, trace or
// report.
func now() time.Time {
	return time.Now() //asmp:allow walltime benchmark timing; measurements are printed, never folded into results
}

// sleepUntil blocks until t.
func sleepUntil(t time.Time) {
	if d := t.Sub(now()); d > 0 {
		time.Sleep(d) //asmp:allow walltime open-loop request generator waits for each due time
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupTimes runs setup b.sc.setups times and returns the median
// duration in seconds. Each repetition starts from scratch; the last
// one's state is what the window measures.
func (b *bench) setupTimes(setup func(rep int) error) (float64, error) {
	var secs []float64
	for rep := 0; rep < b.sc.setups; rep++ {
		t0 := now()
		if err := setup(rep); err != nil {
			return 0, err
		}
		secs = append(secs, now().Sub(t0).Seconds())
	}
	return median(secs), nil
}

// heapSampler tracks the peak live heap (the bytes the last garbage
// collection marked live) while running, sampling runtime/metrics (no
// stop-the-world) every period.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
	also func() // extra per-tick sampling (server queue depth)
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(period time.Duration, also func()) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), also: also}
	runtime.GC()
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(period) //asmp:allow walltime heap and queue-depth sampling period
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

// liveHeap returns the bytes the last garbage collection marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func liveHeapMiB() float64 { return float64(liveHeap()) / (1 << 20) }

func (h *heapSampler) sample() {
	v := liveHeap()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
	if h.also != nil {
		h.also()
	}
}

// finish stops the sampler, waits for it and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// allocBytes returns the cumulative heap bytes allocated.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
