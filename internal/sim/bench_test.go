package sim

import (
	"testing"

	"asmp/internal/simtime"
)

// BenchmarkHandoff measures one kernel↔proc round trip: a proc Sleep
// parks the proc, the timer event fires, and the kernel resumes it. It
// is the same loop as the benchmark harness's sim.handoff_ns probe.
func BenchmarkHandoff(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv(1)
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(simtime.Microsecond)
		}
	})
	b.ResetTimer()
	env.Run()
	b.StopTimer()
	env.Close()
}

// BenchmarkSpawnExit measures spawn-and-exit churn, the pattern of
// workloads that start a short-lived proc per unit of work (TPC-H's
// per-fragment procs): each iteration spawns a proc that sleeps once
// and exits, so the cost covers creating the proc's coroutine, two
// handoffs and retiring it. Run with -benchmem for the per-spawn
// allocation cost.
func BenchmarkSpawnExit(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv(1)
	env.Go("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			env.Go("fragment", func(p *Proc) { p.Sleep(simtime.Microsecond) })
			p.Sleep(simtime.Microsecond)
		}
	})
	b.ResetTimer()
	env.Run()
	b.StopTimer()
	env.Close()
}
