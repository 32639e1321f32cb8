// Package web models the two web servers of §3.4 and the
// ApacheBench-style closed-loop client driving them.
//
// Apache (pre-fork): a control process maintains a pool of worker
// processes. Workers race for connections on the accept queue — most
// recently idle first — so under light load a small, persistent subset
// of workers serves nearly all requests, and where the kernel happened
// to place those workers decides the run's throughput. After handling
// MaxRequestsPerChild requests a worker exits and the control process
// re-forks it on its (timer-driven) maintenance tick; setting the
// threshold very low is the paper's "fine-grained threading" experiment.
//
// Zeus (event-driven): a small fixed number of single-process event
// loops, each bound by the server itself to a processor, with
// connections assigned at accept time and never rebalanced. Because the
// binding and the connection partition are user-level decisions, no
// kernel policy can repair a bad pairing of busy event loops with slow
// cores — which is exactly the paper's finding that the asymmetry-aware
// kernel did not help Zeus.
package web

import (
	"fmt"

	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/workload"
	"asmp/internal/xrand"
)

// Server selects the web-server model.
type Server int

const (
	// Apache is the pre-fork worker-pool server.
	Apache Server = iota
	// Zeus is the bound event-loop server.
	Zeus
)

// String implements fmt.Stringer.
func (s Server) String() string {
	switch s {
	case Apache:
		return "apache"
	case Zeus:
		return "zeus"
	default:
		return fmt.Sprintf("Server(%d)", int(s))
	}
}

// Load selects the two client regimes of the paper.
type Load int

const (
	// LightLoad is ApacheBench with 10 concurrent clients.
	LightLoad Load = iota
	// HeavyLoad is ApacheBench with 60 concurrent clients.
	HeavyLoad
)

// String implements fmt.Stringer.
func (l Load) String() string {
	switch l {
	case LightLoad:
		return "light"
	case HeavyLoad:
		return "heavy"
	default:
		return fmt.Sprintf("Load(%d)", int(l))
	}
}

// Options parameterises a web-server run.
type Options struct {
	// Server selects Apache or Zeus.
	Server Server
	// Load selects the client regime (overridden by Concurrency).
	Load Load
	// Concurrency overrides the load preset's client count when > 0.
	Concurrency int
	// ThinkTime is the client-side gap (network round trip plus client
	// work) between receiving a response and issuing the next request.
	ThinkTime simtime.Duration
	// RequestCycles is the CPU cost of serving one request.
	RequestCycles float64
	// RequestCV is the relative spread of request cost.
	RequestCV float64
	// Workers is the Apache pool size or the Zeus process count.
	Workers int
	// MaxRequestsPerChild recycles an Apache worker after that many
	// requests (5000 default; 50 is the fine-grained experiment).
	MaxRequestsPerChild int
	// ForkCycles is the CPU the control process burns re-forking a
	// worker.
	ForkCycles float64
	// SharedAcceptQueue disables HTTP keep-alive connection affinity for
	// Apache: clients race on a single accept queue instead of holding a
	// persistent connection to one worker. Used by the ablation bench.
	SharedAcceptQueue bool
	// RampUp and Window delimit measurement.
	RampUp simtime.Duration
	Window simtime.Duration
}

// withDefaults fills unset fields with the study's standard values.
func (o Options) withDefaults() Options {
	if o.Concurrency == 0 {
		if o.Load == HeavyLoad {
			o.Concurrency = 60
		} else {
			o.Concurrency = 10
		}
	}
	if o.ThinkTime == 0 {
		if o.Load == HeavyLoad {
			o.ThinkTime = 1 * simtime.Millisecond
		} else {
			o.ThinkTime = 3 * simtime.Millisecond
		}
	}
	if o.RequestCycles == 0 {
		if o.Server == Zeus {
			o.RequestCycles = 0.4e6
		} else {
			o.RequestCycles = 1e6
		}
	}
	if o.RequestCV == 0 {
		o.RequestCV = 0.15
	}
	if o.Workers == 0 {
		if o.Server == Zeus {
			o.Workers = 3
		} else {
			o.Workers = 8
		}
	}
	if o.MaxRequestsPerChild == 0 {
		o.MaxRequestsPerChild = 5000
	}
	if o.ForkCycles == 0 {
		o.ForkCycles = 3e6
	}
	if o.RampUp == 0 {
		o.RampUp = 1 * simtime.Second
	}
	if o.Window == 0 {
		o.Window = 3 * simtime.Second
	}
	return o
}

// Benchmark is the web-server workload.
type Benchmark struct {
	opt Options
}

// New returns a web workload with the given options.
func New(opt Options) *Benchmark { return &Benchmark{opt: opt.withDefaults()} }

// Name implements workload.Workload.
func (b *Benchmark) Name() string {
	return b.opt.Server.String()
}

// Identity implements workload.Identifier.
func (b *Benchmark) Identity() string {
	return fmt.Sprintf("web|%+v", b.opt)
}

// Options returns the resolved options.
func (b *Benchmark) Options() Options { return b.opt }

// request is one in-flight HTTP request; the worker wakes the client.
type request struct {
	client *sim.Proc
}

// Run implements workload.Workload. The primary metric is requests per
// second completed in the measurement window.
func (b *Benchmark) Run(pl *workload.Platform) workload.Result {
	switch b.opt.Server {
	case Zeus:
		return b.runZeus(pl)
	default:
		return b.runApache(pl)
	}
}

// runApache builds the pre-fork pool, the control process and the
// closed-loop clients.
//
// Clients hold persistent (keep-alive) connections, so each client is
// served by one worker process until that worker is recycled. The
// workers are ordinary kernel-scheduled processes: under the stock
// kernel their (sticky, random) placement decides every connection's
// service speed for the whole run — the Figure 6(a) instability — while
// the asymmetry-aware kernel can migrate them to fast cores and repair
// it, which is exactly what distinguishes Apache from Zeus in the paper.
func (b *Benchmark) runApache(pl *workload.Platform) workload.Result {
	o := b.opt
	env := pl.Env
	start, end := o.RampUp, o.RampUp+o.Window

	completed := 0
	forks := 0
	deficit := []int{} // queue indices awaiting a replacement worker

	// One connection queue per worker slot (keep-alive affinity), or a
	// single shared accept queue for the ablation.
	nq := o.Workers
	if o.SharedAcceptQueue {
		nq = 1
	}
	queues := make([]*sim.Queue[request], nq)
	for i := range queues {
		if o.SharedAcceptQueue {
			queues[i] = sim.NewAcceptQueue[request](env)
		} else {
			queues[i] = sim.NewQueue[request](env)
		}
	}

	reqCost := xrand.NewLogNormal(o.RequestCycles, o.RequestCV)
	worker := func(slot int) func(*sim.Proc) {
		return func(p *sim.Proc) {
			q := queues[slot%nq]
			served := 0
			for {
				req, ok := q.Get(p)
				if !ok {
					return
				}
				p.Compute(reqCost.Draw(p.Rand()))
				if now := p.Now(); now >= start && now < end {
					completed++
				}
				env.Wake(req.client)
				served++
				if served >= o.MaxRequestsPerChild {
					deficit = append(deficit, slot)
					return
				}
			}
		}
	}
	for i := 0; i < o.Workers; i++ {
		env.Go(fmt.Sprintf("httpd-%d", i), worker(i))
	}

	// Control process: a timer-driven maintenance loop, like Apache's
	// once-per-interval pool upkeep. It re-forks at most a few workers
	// per tick, so very aggressive recycling is refill-rate limited no
	// matter how fast the machine is — the reason the fine-grained
	// configuration's throughput does not scale.
	const maintenance = 100 * simtime.Millisecond
	const maxForksPerTick = 4
	env.Go("httpd-control", func(p *sim.Proc) {
		for {
			p.Sleep(maintenance)
			n := len(deficit)
			if n > maxForksPerTick {
				n = maxForksPerTick
			}
			for i := 0; i < n; i++ {
				p.Compute(o.ForkCycles)
				slot := deficit[0]
				deficit = deficit[1:]
				forks++
				env.Go(fmt.Sprintf("httpd-refork-%d", forks), worker(slot))
			}
		}
	})

	b.runClients(pl, func(p *sim.Proc, client int) {
		queues[client%nq].Put(request{client: p})
		p.Block()
	})

	env.RunUntil(end)
	res := workload.Result{
		Metric:         "throughput (req/s)",
		Value:          float64(completed) / float64(o.Window),
		HigherIsBetter: true,
	}
	res.AddExtra("forks", float64(forks))
	return res
}

// runZeus builds the bound event loops and their private connection
// queues.
func (b *Benchmark) runZeus(pl *workload.Platform) workload.Result {
	o := b.opt
	env := pl.Env
	start, end := o.RampUp, o.RampUp+o.Window
	ncores := pl.Config.Fast + pl.Config.Slow
	rng := env.Rand().Split()

	completed := 0
	reqCost := xrand.NewLogNormal(o.RequestCycles, o.RequestCV)
	// Zeus binds each event loop to a processor itself. With as many
	// processes as cores this is a permutation — which process ends up
	// on which core is decided by the server at startup, out of the
	// kernel's hands.
	nproc := o.Workers
	perm := rng.Perm(ncores)
	queues := make([]*sim.Queue[request], nproc)
	for i := 0; i < nproc; i++ {
		queues[i] = sim.NewQueue[request](env)
		core := perm[i%ncores]
		q := queues[i]
		env.Go(fmt.Sprintf("zeus-%d", i), func(p *sim.Proc) {
			p.SetAffinity(sim.Single(core))
			for {
				req, ok := q.Get(p)
				if !ok {
					return
				}
				p.Compute(reqCost.Draw(p.Rand()))
				if now := p.Now(); now >= start && now < end {
					completed++
				}
				env.Wake(req.client)
			}
		})
	}

	// Connections are distributed round-robin across the event loops —
	// Zeus's own user-level load balancing, which silently assumes all
	// processors are equal. The per-run randomness is purely which
	// process got bound to which core: exactly the pairing no kernel
	// policy can repair.
	b.runClients(pl, func(p *sim.Proc, client int) {
		queues[client%nproc].Put(request{client: p})
		p.Block()
	})

	env.RunUntil(end)
	return workload.Result{
		Metric:         "throughput (req/s)",
		Value:          float64(completed) / float64(o.Window),
		HigherIsBetter: true,
	}
}

// runClients spawns the closed-loop ApacheBench clients. issue submits
// one request on behalf of client i and returns when the response
// arrives.
func (b *Benchmark) runClients(pl *workload.Platform, issue func(p *sim.Proc, client int)) {
	o := b.opt
	for i := 0; i < o.Concurrency; i++ {
		i := i
		pl.Env.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			for {
				issue(p, i)
				think := simtime.Duration(p.Rand().Range(0.8, 1.2)) * o.ThinkTime
				p.Sleep(think)
			}
		})
	}
}

func init() {
	workload.Register("apache", func() workload.Workload { return New(Options{Server: Apache}) })
	workload.Register("zeus", func() workload.Workload { return New(Options{Server: Zeus}) })
}
