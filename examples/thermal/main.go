// Thermal: asymmetry that appears at runtime.
//
// The paper emulated asymmetry with the Xeon's thermal-management
// duty-cycle mechanism (§2) — the same mechanism a real machine uses
// when a core overheats. This example runs SPECjbb on a machine that
// STARTS symmetric and develops a thermal problem mid-run: one core
// throttles to 1/8 speed at t=2s and recovers at t=6s.
//
// The stock kernel strands whatever happened to live on the throttled
// core (sometimes the concurrent garbage collector — watch the
// throughput trace); the asymmetry-aware kernel treats the event as just
// another asymmetric machine and adapts within a balance tick. This is
// the big.LITTLE / turbo-era scheduling problem the paper saw coming.
//
// Run with:
//
//	go run ./examples/thermal
package main

import (
	"fmt"

	"asmp"
	"asmp/internal/cpu"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/workload"
	"asmp/internal/workload/gc"
	"asmp/internal/workload/jbb"
	"asmp/internal/xrand"
)

// runWithThermalEvent executes SPECjbb on an initially symmetric 4-core
// machine, throttling core 0 during [2s, 6s), and returns throughput per
// 1-second window.
func runWithThermalEvent(policy asmp.Policy, seed uint64) []float64 {
	pl := workload.NewPlatform(cpu.MustParseConfig("4f-0s"), sched.Defaults(policy), seed)
	defer pl.Close()

	// Count transaction completions per window by wrapping the workload:
	// we re-implement the jbb loop here so we can sample mid-run.
	o := jbb.New(jbb.Options{Warehouses: 12, GC: gc.ConcurrentGenerational}).Options()
	heap := gc.NewHeap(pl, gc.DefaultConfig(gc.ConcurrentGenerational))
	const windows = 8
	counts := make([]float64, windows)
	txnCost := xrand.NewLogNormal(o.TxnCycles, o.TxnCV)
	for w := 0; w < o.Warehouses; w++ {
		pl.Env.Go(fmt.Sprintf("warehouse-%d", w), func(p *sim.Proc) {
			for {
				p.Compute(txnCost.Draw(p.Rand()))
				heap.Alloc(p, o.AllocPerTxn)
				if idx := int(p.Now() / simtime.Second); idx >= 0 && idx < windows {
					counts[idx]++
				}
			}
		})
	}

	pl.Env.After(2*simtime.Second, func() { pl.Sched.SetDuty(0, 0.125) })
	pl.Env.After(6*simtime.Second, func() { pl.Sched.SetDuty(0, 1.0) })
	pl.Env.RunUntil(windows * simtime.Second)
	return counts
}

func main() {
	fmt.Println("SPECjbb on a 4-core machine; core 0 thermally throttles to 1/8 speed during [2s, 6s).")
	fmt.Println("Throughput per second (txn/s), five seeds per kernel:")
	fmt.Println()
	fmt.Printf("%-28s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"kernel / run", "0-1s", "1-2s", "2-3s", "3-4s", "4-5s", "5-6s", "6-7s", "7-8s")
	for _, pol := range []struct {
		name   string
		policy asmp.Policy
	}{
		{"stock kernel", asmp.PolicyNaive},
		{"asymmetry-aware kernel", asmp.PolicyAsymmetryAware},
	} {
		for seed := uint64(1); seed <= 5; seed++ {
			counts := runWithThermalEvent(pol.policy, seed)
			fmt.Printf("%-28s", fmt.Sprintf("%s, seed %d", pol.name, seed))
			for _, c := range counts {
				fmt.Printf(" %8.0f", c)
			}
			fmt.Println()
		}
	}

	fmt.Println(`
Reading the table:
  - Both kernels lose throughput when the core throttles (capacity drops
    from 4.0 to 3.125 fast-equivalents): the ~7500 txn/s dip is physics.
  - Under the stock kernel the damage depends on who was stranded on
    core 0. In the unlucky run above, the concurrent garbage collector
    was: reclamation falls behind allocation and throughput decays all
    the way to ~1900 txn/s until the core recovers.
  - The aware kernel gives the same bounded dip in every run and snaps
    back instantly at t=6s. Exposing asymmetry to the OS handles even
    asymmetry that appears and disappears at runtime.`)
}
