// Package jappserver models SPECjAppServer2002 (§3.2 of the paper): a
// three-tier J2EE benchmark whose driver injects orders at a specified
// rate but — crucially — scales the rate back when the server misses its
// response-time requirement. That feedback loop is why the paper finds
// the workload stable under performance asymmetry: the application
// adapts to whatever compute power it actually gets.
//
// Only the middle tier (the jAppServer) runs on the simulated machine,
// matching the paper's setup where driver and database ran on separate
// boxes that were never the bottleneck. An injected order produces one
// customer-domain (NewOrder) transaction and one manufacturing-domain
// work order, each processed by a pool of container threads.
package jappserver

import (
	"fmt"

	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/stats"
	"asmp/internal/workload"
	"asmp/internal/xrand"
)

// Options parameterises a SPECjAppServer run.
type Options struct {
	// InjectionRate is the specified orders-per-second rate (the paper
	// sweeps 250, 290, 320).
	InjectionRate float64
	// Workers is the container thread-pool size.
	Workers int
	// NewOrderCycles and ManufacturingCycles are the per-transaction
	// costs in fast-core cycles.
	NewOrderCycles      float64
	ManufacturingCycles float64
	// CostCV is the relative spread of transaction cost.
	CostCV float64
	// ResponseLimit is the per-transaction response-time requirement the
	// driver enforces through its feedback loop.
	ResponseLimit simtime.Duration
	// FeedbackInterval is how often the driver re-evaluates the rate.
	FeedbackInterval simtime.Duration
	// DisableFeedback turns the driver's adaptation off (for the ablation
	// study: without feedback the workload behaves like an overloaded
	// open system).
	DisableFeedback bool
	// RampUp and Window delimit the measurement interval.
	RampUp simtime.Duration
	Window simtime.Duration
}

// withDefaults fills unset fields with the study's standard values.
func (o Options) withDefaults() Options {
	if o.InjectionRate == 0 {
		o.InjectionRate = 320
	}
	if o.Workers == 0 {
		o.Workers = 12
	}
	if o.NewOrderCycles == 0 {
		o.NewOrderCycles = 10e6
	}
	if o.ManufacturingCycles == 0 {
		o.ManufacturingCycles = 17e6
	}
	if o.CostCV == 0 {
		o.CostCV = 0.2
	}
	if o.ResponseLimit == 0 {
		o.ResponseLimit = 500 * simtime.Millisecond
	}
	if o.FeedbackInterval == 0 {
		o.FeedbackInterval = 250 * simtime.Millisecond
	}
	if o.RampUp == 0 {
		o.RampUp = 3 * simtime.Second
	}
	if o.Window == 0 {
		o.Window = 6 * simtime.Second
	}
	return o
}

// Benchmark is the SPECjAppServer workload.
type Benchmark struct {
	opt Options
}

// New returns a SPECjAppServer workload with the given options.
func New(opt Options) *Benchmark { return &Benchmark{opt: opt.withDefaults()} }

// Name implements workload.Workload.
func (b *Benchmark) Name() string { return "specjappserver" }

// Identity implements workload.Identifier.
func (b *Benchmark) Identity() string {
	return fmt.Sprintf("specjappserver|%+v", b.opt)
}

// Options returns the resolved options.
func (b *Benchmark) Options() Options { return b.opt }

// txn is one transaction flowing through the container. cost is its
// type's cost distribution, shared by every transaction of that type.
type txn struct {
	cost     *xrand.LogNormalDist
	injected simtime.Time
	mfg      bool
}

// Run implements workload.Workload. The primary metric is manufacturing
// throughput; extras carry the NewOrder throughput, the achieved
// injection rate and the response-time distribution the paper plots in
// Figure 3(b).
func (b *Benchmark) Run(pl *workload.Platform) workload.Result {
	o := b.opt
	env := pl.Env
	start := o.RampUp
	end := o.RampUp + o.Window

	queue := sim.NewQueue[txn](env)
	rng := env.Rand().Split()
	newOrderCost := xrand.NewLogNormal(o.NewOrderCycles, o.CostCV)
	mfgCost := xrand.NewLogNormal(o.ManufacturingCycles, o.CostCV)

	var (
		mfgDone, newDone int
		respSample       = &stats.Sample{}
		recentDone       int
		recentViolations int
		rate             = o.InjectionRate
		injectedInWindow int
	)

	// Container worker pool.
	for i := 0; i < o.Workers; i++ {
		env.Go(fmt.Sprintf("ejb-worker-%d", i), func(p *sim.Proc) {
			for {
				t, ok := queue.Get(p)
				if !ok {
					return
				}
				p.Compute(t.cost.Draw(p.Rand()))
				now := p.Now()
				resp := now - t.injected
				recentDone++
				if resp > o.ResponseLimit {
					recentViolations++
				}
				if now >= start && now < end {
					if t.mfg {
						mfgDone++
						respSample.Add(float64(resp))
					} else {
						newDone++
					}
				}
			}
		})
	}

	// Driver: open-loop injection with feedback. Each order yields one
	// NewOrder and one manufacturing transaction.
	var inject func()
	inject = func() {
		now := env.Now()
		if now >= end {
			return
		}
		if now >= start && now < end {
			injectedInWindow++
		}
		queue.Put(txn{cost: &newOrderCost, injected: now, mfg: false})
		queue.Put(txn{cost: &mfgCost, injected: now, mfg: true})
		gap := simtime.Duration(1/rate) * simtime.Duration(rng.Range(0.9, 1.1))
		env.After(gap, inject)
	}
	env.After(0, inject)

	// Feedback controller: SPEC's conformance loop. When the server
	// cannot keep up (backlog grows or responses blow the limit) the
	// driver backs the rate down toward the measured completion rate;
	// when it is comfortably keeping up, the rate recovers toward the
	// specified one.
	var control func()
	control = func() {
		if env.Now() >= end {
			return
		}
		if !o.DisableFeedback {
			completionRate := float64(recentDone) / 2 / float64(o.FeedbackInterval)
			backlog := queue.Len()
			overloaded := backlog > 4*o.Workers ||
				(recentDone > 0 && float64(recentViolations)/float64(recentDone) > 0.1)
			switch {
			case overloaded:
				target := completionRate * 0.95
				if target < 1 {
					target = 1
				}
				if target < rate {
					rate = target
				} else {
					rate *= 0.9
				}
			case rate < o.InjectionRate:
				rate *= 1.1
				if rate > o.InjectionRate {
					rate = o.InjectionRate
				}
			}
		}
		recentDone, recentViolations = 0, 0
		env.After(o.FeedbackInterval, control)
	}
	env.After(o.FeedbackInterval, control)

	env.RunUntil(end)

	res := workload.Result{
		Metric:         "manufacturing throughput (txn/s)",
		Value:          float64(mfgDone) / float64(o.Window),
		HigherIsBetter: true,
	}
	res.AddExtra("neworder_tps", float64(newDone)/float64(o.Window))
	res.AddExtra("achieved_injection_rate", float64(injectedInWindow)/float64(o.Window))
	res.AddExtra("final_rate", rate)
	if respSample.N() > 0 {
		res.AddExtra("resp_avg_ms", respSample.Mean()*1e3)
		res.AddExtra("resp_p90_ms", respSample.Percentile(90)*1e3)
		res.AddExtra("resp_max_ms", respSample.Max()*1e3)
	}
	return res
}

func init() {
	workload.Register("specjappserver", func() workload.Workload { return New(Options{}) })
}
