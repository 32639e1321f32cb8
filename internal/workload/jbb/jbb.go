// Package jbb models SPECjbb2000 (§3.1 of the paper): a Java
// business-transaction server where each warehouse is served by one
// thread with no think time, running inside a managed runtime whose
// garbage collector shares the machine with the application.
//
// The model's fidelity targets the paper's mechanisms, not Java
// semantics: warehouse threads burn a lognormally distributed number of
// cycles per transaction and allocate heap memory; the collector (from
// the gc package) either pauses everyone in parallel or runs as one
// ordinary thread whose OS placement decides whether reclamation keeps
// up with allocation.
package jbb

import (
	"fmt"

	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/workload"
	"asmp/internal/workload/gc"
	"asmp/internal/xrand"
)

// JVM selects the modelled virtual machine.
type JVM int

const (
	// JRockit models BEA WebLogic JRockit 8.1.
	JRockit JVM = iota
	// HotSpot models Sun HotSpot 1.4.2: slightly slower transaction code
	// and a less efficient collector, giving the higher absolute variance
	// the paper reports in Figure 1(a).
	HotSpot
)

// String implements fmt.Stringer.
func (j JVM) String() string {
	switch j {
	case JRockit:
		return "jrockit"
	case HotSpot:
		return "hotspot"
	default:
		return fmt.Sprintf("JVM(%d)", int(j))
	}
}

// Options parameterises a SPECjbb run.
type Options struct {
	// Warehouses is the number of warehouse threads (the concurrency
	// knob swept in Figure 1).
	Warehouses int
	// JVM selects the virtual-machine model.
	JVM JVM
	// GC selects the collector.
	GC gc.Kind
	// RampUp is discarded warm-up time before measurement.
	RampUp simtime.Duration
	// Window is the measurement interval.
	Window simtime.Duration
	// TxnCycles is the mean transaction cost in fast-core cycles.
	TxnCycles float64
	// TxnCV is the relative spread of transaction cost.
	TxnCV float64
	// AllocPerTxn is the heap allocation per transaction in bytes.
	AllocPerTxn float64
	// Heap overrides the collector configuration when non-nil.
	Heap *gc.Config
}

// Defaults fills unset fields with the study's standard values.
func (o Options) withDefaults() Options {
	if o.Warehouses == 0 {
		o.Warehouses = 8
	}
	if o.RampUp == 0 {
		o.RampUp = 1 * simtime.Second
	}
	if o.Window == 0 {
		o.Window = 4 * simtime.Second
	}
	if o.TxnCycles == 0 {
		o.TxnCycles = 1e6
		if o.JVM == HotSpot {
			o.TxnCycles = 1.15e6
		}
	}
	if o.TxnCV == 0 {
		o.TxnCV = 0.3
	}
	if o.AllocPerTxn == 0 {
		o.AllocPerTxn = 50e3
	}
	return o
}

// heapConfig returns the collector configuration implied by the options.
func (o Options) heapConfig() gc.Config {
	if o.Heap != nil {
		return *o.Heap
	}
	cfg := gc.DefaultConfig(o.GC)
	if o.JVM == HotSpot {
		// HotSpot 1.4.2's collector works harder per byte and starts
		// later, making it more sensitive to where the OS puts it.
		cfg.CyclesPerByte = 2.5
		cfg.TriggerFraction = 0.5
	}
	return cfg
}

// Benchmark is the SPECjbb workload.
type Benchmark struct {
	opt Options
}

// New returns a SPECjbb workload with the given options.
func New(opt Options) *Benchmark { return &Benchmark{opt: opt.withDefaults()} }

// Name implements workload.Workload.
func (b *Benchmark) Name() string { return "specjbb" }

// Identity implements workload.Identifier. The Heap pointer is rendered
// via the resolved collector configuration, never its address.
func (b *Benchmark) Identity() string {
	o := b.opt
	o.Heap = nil
	//asmp:allow purity the Heap pointer field is nilled on the local copy above, so %+v prints "heap=<nil>" — the resolved config is appended separately by value
	return fmt.Sprintf("specjbb|%+v|heap=%+v", o, b.opt.heapConfig())
}

// Options returns the resolved options.
func (b *Benchmark) Options() Options { return b.opt }

// Run implements workload.Workload. The primary metric is measured
// throughput in transactions per second over the measurement window.
func (b *Benchmark) Run(pl *workload.Platform) workload.Result {
	o := b.opt
	heap := gc.NewHeap(pl, o.heapConfig())
	start := o.RampUp
	end := o.RampUp + o.Window

	completed := 0
	perWarehouse := make([]int, o.Warehouses)
	txnCost := xrand.NewLogNormal(o.TxnCycles, o.TxnCV)
	for w := 0; w < o.Warehouses; w++ {
		w := w
		pl.Env.Go(fmt.Sprintf("warehouse-%d", w), func(p *sim.Proc) {
			for {
				p.Compute(txnCost.Draw(p.Rand()))
				heap.Alloc(p, o.AllocPerTxn)
				if now := p.Now(); now >= start && now < end {
					completed++
					perWarehouse[w]++
				}
			}
		})
	}
	pl.Env.RunUntil(end)

	res := workload.Result{
		Metric:         "throughput (txn/s)",
		Value:          float64(completed) / float64(o.Window),
		HigherIsBetter: true,
	}
	gs := heap.Stats()
	res.AddExtra("gc_collections", float64(gs.Collections))
	res.AddExtra("gc_stall_seconds", gs.StallSeconds)
	res.AddExtra("gc_stall_events", float64(gs.StallEvents))
	minW, maxW := perWarehouse[0], perWarehouse[0]
	for _, c := range perWarehouse[1:] {
		if c < minW {
			minW = c
		}
		if c > maxW {
			maxW = c
		}
	}
	res.AddExtra("warehouse_min_txn", float64(minW))
	res.AddExtra("warehouse_max_txn", float64(maxW))
	return res
}

func init() {
	workload.Register("specjbb", func() workload.Workload {
		return New(Options{GC: gc.ConcurrentGenerational})
	})
}
