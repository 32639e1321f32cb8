package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/digest"
	"asmp/internal/fault"
	"asmp/internal/sched"
	"asmp/internal/workload"
	_ "asmp/internal/workload/h264"
	_ "asmp/internal/workload/jappserver"
	_ "asmp/internal/workload/jbb"
	_ "asmp/internal/workload/multiprog"
	_ "asmp/internal/workload/omp"
	_ "asmp/internal/workload/pmake"
	_ "asmp/internal/workload/tpch"
	_ "asmp/internal/workload/web"
	"asmp/internal/xrand"
)

// scale sizes every workload. "full" is the benchmark; "tiny" exists
// so the smoke tests finish in seconds.
type scale struct {
	name string
	// The sweep grid: every model under every policy on configs,
	// repeated runs times, plus one duty-trace column.
	models     []string
	policies   []sched.Policy
	configs    []cpu.Config // nil = the paper's nine
	runs       int
	dutyModel  string
	dutyPolicy sched.Policy
	dutyPlan   string
	// setups is how many times setup repeats (setup_s is the median).
	setups int
	// Latency limits for goodput_rps, per workload, in milliseconds.
	coldLimitMs, warmLimitMs, serveLimitMs float64
	// serve-mixed: open-loop rate (requests/s), primed memo cells, the
	// quick figures in the mix and the traced-cell sample size.
	rate      float64
	memoCells int
	figures   []string
	// traceCells bounds how many cells the traced run re-runs.
	traceCells int
}

var scales = map[string]scale{
	"full": {
		name: "full",
		models: []string{"specjbb", "apache", "zeus", "specjappserver", "h264",
			"tpch", "pmake", "multiprog", "omp-swim", "omp-art", "omp-ammp",
			"omp-apsi", "omp-fma3d", "omp-mgrid", "omp-wupwise"},
		policies:     []sched.Policy{sched.PolicyNaive, sched.PolicyAsymmetryAware},
		runs:         1,
		dutyModel:    "specjbb",
		dutyPolicy:   sched.PolicyAsymmetryAware,
		dutyPlan:     "wave@1s:500ms:0:0.125:4,walk@1s:250ms:0:42:12",
		setups:       3,
		coldLimitMs:  2000,
		warmLimitMs:  50,
		serveLimitMs: 250,
		rate:         60,
		memoCells:    48,
		figures:      []string{"3a", "4a", "5a", "8a", "9a", "9b"},
		traceCells:   200,
	},
	"tiny": {
		name:         "tiny",
		models:       []string{"tpch", "multiprog"},
		policies:     []sched.Policy{sched.PolicyNaive, sched.PolicyAsymmetryAware},
		configs:      []cpu.Config{cpu.MustParseConfig("4f-0s"), cpu.MustParseConfig("2f-2s/8"), cpu.MustParseConfig("0f-4s/8")},
		runs:         1,
		dutyModel:    "tpch",
		dutyPolicy:   sched.PolicyAsymmetryAware,
		dutyPlan:     "wave@1s:500ms:0:0.125:4",
		setups:       1,
		coldLimitMs:  2000,
		warmLimitMs:  50,
		serveLimitMs: 500,
		rate:         40,
		memoCells:    3,
		figures:      []string{"4a"},
		traceCells:   8,
	},
}

// probeScaleDown divides the engine probes' iteration counts.
func (sc scale) probeScaleDown() int {
	if sc.name == "tiny" {
		return 20
	}
	return 1
}

// column is one experiment of the grid: a model under a policy,
// optionally under a duty trace.
type column struct {
	name string
	wl   workload.Workload
	pol  sched.Policy
	plan *fault.Plan
}

// grid is the fixed sweep grid with its seed.
type grid struct {
	base    uint64
	configs []cpu.Config
	runs    int
	cols    []column
}

// newGrid builds the grid for base seed base.
func newGrid(sc scale, base uint64) (*grid, error) {
	g := &grid{base: base, configs: sc.configs, runs: sc.runs}
	if g.configs == nil {
		g.configs = cpu.StandardConfigs
	}
	for _, m := range sc.models {
		wl, err := workload.New(m)
		if err != nil {
			return nil, err
		}
		for _, p := range sc.policies {
			g.cols = append(g.cols, column{name: m + "/" + p.String(), wl: wl, pol: p})
		}
	}
	wl, err := workload.New(sc.dutyModel)
	if err != nil {
		return nil, err
	}
	plan, err := fault.Parse(sc.dutyPlan)
	if err != nil {
		return nil, fmt.Errorf("duty plan: %w", err)
	}
	g.cols = append(g.cols, column{name: sc.dutyModel + "/" + sc.dutyPolicy.String() + "+duty", wl: wl, pol: sc.dutyPolicy, plan: plan})
	return g, nil
}

// gridSeed derives the grid's base seed from the workload seed.
func gridSeed(seed uint64) uint64 { return xrand.New(seed).Uint64() | 1 }

// perCol is the number of cells in one column.
func (g *grid) perCol() int { return len(g.configs) * g.runs }

// cells is the number of cells in the grid.
func (g *grid) cells() int { return len(g.cols) * g.perCol() }

// experiment is column c as a core.Experiment.
func (g *grid) experiment(c int, workers int) core.Experiment {
	col := g.cols[c]
	return core.Experiment{
		Name:     col.name,
		Workload: col.wl,
		Configs:  g.configs,
		Runs:     g.runs,
		Sched:    sched.Defaults(col.pol),
		BaseSeed: g.base,
		Fault:    col.plan,
		Workers:  workers,
	}
}

// spec is cell i (grid order: column, config, run) as the RunSpec the
// column's experiment executes for it.
func (g *grid) spec(i int) core.RunSpec {
	c, rest := i/g.perCol(), i%g.perCol()
	cfg, r := rest/g.runs, rest%g.runs
	col := g.cols[c]
	return core.RunSpec{
		Workload: col.wl,
		Config:   g.configs[cfg],
		Sched:    sched.Defaults(col.pol),
		Seed:     core.RunSeed(g.base, cfg, r),
		Fault:    col.plan,
	}
}

// foldGrid folds cell digests, in grid order, into one grid digest.
func foldGrid(cells []digest.Digest) digest.Digest {
	h := digest.New()
	for _, d := range cells {
		h.Uint64(uint64(d))
	}
	return h.Sum()
}

//go:embed reference.json
var referenceJSON []byte

// loadReference parses the embedded reference grid digests, keyed
// "<size>/<seed>".
func loadReference() (map[string]string, error) {
	var raw struct {
		GridDigest map[string]string `json:"grid_digest"`
	}
	if err := json.Unmarshal(referenceJSON, &raw); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return raw.GridDigest, nil
}

// checkReference compares the grid digest with the one pinned for this
// size and seed, when one is pinned.
func (b *bench) checkReference(out *outcome, got digest.Digest) {
	out.note("grid_digest", got.String())
	key := fmt.Sprintf("%s/%d", b.sc.name, b.seed)
	want, ok := b.reference[key]
	if !ok {
		out.note("grid_reference", "none pinned for "+key)
		return
	}
	out.note("grid_reference", want)
	out.check(got.String() == want, "grid digest %s differs from reference %s pinned for %s", got, want, key)
}

// pass is one sweep over every column of the grid.
type pass struct {
	digests []digest.Digest // per cell, grid order
	colMs   []float64       // per column wall time
	elapsed float64         // seconds
	errs    []string
}

// runPass runs every column through core.Experiment.Run, one after
// another, each on the configured host workers.
func (b *bench) runPass(g *grid, parent int) pass {
	p := pass{digests: make([]digest.Digest, 0, g.cells())}
	t0 := now()
	for c := range g.cols {
		sp := b.spans.start("experiment", parent, g.cols[c].name)
		tc := now()
		o := g.experiment(c, b.workers).Run()
		p.colMs = append(p.colMs, ms(now().Sub(tc)))
		b.spans.end(sp)
		for _, cr := range o.PerConfig {
			for r, res := range cr.Results {
				if err := cr.Errs[r]; err != nil {
					p.errs = append(p.errs, fmt.Sprintf("%s %s run %d: %v", g.cols[c].name, cr.Config, r, err))
				}
				p.digests = append(p.digests, res.Digest)
			}
		}
	}
	p.elapsed = now().Sub(t0).Seconds()
	return p
}

// checkPass checks a pass against the reference cell digests: every
// cell succeeded and its digest matches. It counts one attempt per
// cell.
func checkPass(out *outcome, g *grid, p pass, want []digest.Digest) {
	for i, d := range p.digests {
		ok := d != 0 && i < len(want) && d == want[i]
		out.check(ok, "cell %d (%s): digest %s differs from the reference pass", i, g.cols[i/g.perCol()].name, d)
	}
	for _, e := range p.errs {
		if len(out.failures) < maxFailureLines {
			out.failures = append(out.failures, "cell error: "+e)
		}
	}
}
