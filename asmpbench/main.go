// Command asmpbench is the repository's benchmark: one process that
// runs one of three workloads against the simulator and its harness,
// checks every output, and prints every metric by name and unit.
//
//	go run ./asmpbench --workload sweep-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (NOTES.md says why each exists):
//
//	sweep-cold   the fixed grid through core.Experiment.Run, memo reset
//	             before every pass, no disk cache
//	sweep-warm   the same grid in a fresh memo, every cell read from a
//	             disk result cache that setup filled
//	serve-mixed  an in-process asmp-serve driven over loopback in an
//	             open loop at a fixed rate with a seeded request mix
//
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 the same workload runs with spans recorded and is followed
// by per-layer probes, and the result line carries the per-layer
// metrics. The last line of standard output is always one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, options{}))
}

// options are the knobs tests reach that the command line does not.
type options struct {
	// reference overrides the embedded reference grid digests
	// ("<size>/<seed>" → digest).
	reference map[string]string
	// wrapHandler, when set, wraps the server's handler (tests corrupt
	// responses with it to prove the output checks fire).
	wrapHandler func(http.Handler) http.Handler
}

// run parses args, runs one workload and prints its result. It returns
// the process exit code: 0 when a result line was printed (correct or
// not), 1 when the run could not complete, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer, opt options) int {
	fs := flag.NewFlagSet("asmpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "sweep-cold | sweep-warm | serve-mixed")
		seed    = fs.Uint64("seed", defaultSeed, "workload seed: every input is derived from it")
		seconds = fs.Float64("seconds", 20, "measured window per run, in seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		size    = fs.String("size", "full", "full | tiny (tiny is for smoke tests)")
		workdir = fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for cache dirs and spans")
		commit  = fs.String("commit", "unknown", "commit being measured (recorded only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "asmpbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	sc, ok := scales[*size]
	if !ok {
		fmt.Fprintf(stderr, "asmpbench: unknown --size %q\n", *size)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "asmpbench: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "asmpbench: --seconds must be positive\n")
		return 2
	}
	w, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(stderr, "asmpbench: unknown --workload %q (sweep-cold | sweep-warm | serve-mixed)\n", *wl)
		return 2
	}
	ref := opt.reference
	if ref == nil {
		var err error
		if ref, err = loadReference(); err != nil {
			fmt.Fprintln(stderr, "asmpbench:", err)
			return 1
		}
	}
	b := &bench{
		workload:  *wl,
		seed:      *seed,
		seconds:   *seconds,
		traced:    *traced == 1,
		sc:        sc,
		commit:    *commit,
		conns:     min(maxParallel, runtime.NumCPU()),
		reference: ref,
		wrap:      opt.wrapHandler,
	}
	b.workers = min(w.workers, runtime.NumCPU())
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "asmpbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, fmt.Sprintf("%s-seed%d-", *wl, *seed))
	if err != nil {
		fmt.Fprintln(stderr, "asmpbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b.dir = dir
	b.spans = newRecorder(b.traced)

	out, err := w.run(b)
	if err != nil {
		fmt.Fprintln(stderr, "asmpbench:", err)
		return 1
	}
	if b.traced {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", *wl, *seed))
		if err := b.spans.write(path); err != nil {
			fmt.Fprintln(stderr, "asmpbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %d written to %s\n", b.spans.len(), path)
	}
	b.printSetup(stdout, out)
	metrics := out.endToEnd
	if b.traced {
		metrics = out.perLayer
	}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-36s %14s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "# FAILED: %s\n", f)
	}
	line, err := json.Marshal(resultLine(out, metrics))
	if err != nil {
		fmt.Fprintln(stderr, "asmpbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// maxParallel caps host workers and client connections; both are also
// capped at the host's CPU count.
const maxParallel = 2

// defaultSeed is the seed whose grid digest reference.json pins.
const defaultSeed = 1

// workloads maps each --workload name to its runner and its host
// worker count (core.SetDefaultWorkers). The sweeps run on one worker:
// on a 2-vCPU host two workers made the grid's pass-to-pass throughput
// swing by about 12% (simulation goroutine handoffs crossing
// processors), one worker by about 3%. serve-mixed keeps the daemon's
// default of one worker per CPU.
var workloads = map[string]struct {
	run     func(*bench) (*outcome, error)
	workers int
}{
	"sweep-cold":  {runSweepCold, 1},
	"sweep-warm":  {runSweepWarm, 1},
	"serve-mixed": {runServeMixed, maxParallel},
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// jsonMetric is a metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the result line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func resultLine(out *outcome, metrics []metric) jsonResult {
	r := jsonResult{
		Correct:   out.failed == 0 && len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(metrics)),
	}
	for _, m := range metrics {
		r.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return r
}
