package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"asmp/internal/cpu"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/workload"
)

// spawnStuckProcs starts procs that never finish on their own: parked,
// sleeping far past any deadline, and blocked on a held mutex.
func spawnStuckProcs(env *sim.Env) {
	var mu sim.Mutex
	env.Go("holder", func(p *sim.Proc) {
		mu.Lock(p)
		p.Block()
	})
	for i := 0; i < 3; i++ {
		env.Go("parked", func(p *sim.Proc) { p.Block() })
		env.Go("sleeper", func(p *sim.Proc) { p.Sleep(simtime.Minute) })
		env.Go("waiter", func(p *sim.Proc) { mu.Lock(p) })
	}
}

// TestExecuteSafeReleasesProcCoroutines: a run that trips the events
// watchdog and one that deadlocks both abandon suspended procs
// mid-body. ExecuteSafe's teardown must unwind every one of them, so
// the goroutine count returns to its baseline.
func TestExecuteSafeReleasesProcCoroutines(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func(pl *workload.Platform)
		limits sim.Limits
		want   any
	}{
		{
			name: "events watchdog",
			run: func(pl *workload.Platform) {
				spawnStuckProcs(pl.Env)
				pl.Env.Go("spinner", func(p *sim.Proc) {
					for {
						p.Sleep(simtime.Millisecond)
					}
				})
				pl.Env.Run()
			},
			limits: sim.Limits{MaxEvents: 1000},
			want:   new(*sim.WatchdogError),
		},
		{
			name: "deadlock",
			run: func(pl *workload.Platform) {
				spawnStuckProcs(pl.Env)
				// The sleepers exit at one minute; the rest deadlock.
				pl.Env.RunUntil(2 * simtime.Minute)
			},
			limits: sim.Limits{DetectDeadlock: true},
			want:   new(*sim.DeadlockError),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := ExecuteSafe(RunSpec{
				Workload: workloadFunc(func(pl *workload.Platform) workload.Result {
					tc.run(pl)
					return workload.Result{Metric: "x", Value: 1}
				}),
				Config: cpu.MustParseConfig("4f-0s"),
				Sched:  sched.Defaults(sched.PolicyNaive),
				Seed:   1,
				Limits: tc.limits,
			})
			if !errors.As(err, tc.want) {
				t.Fatalf("err = %v, want %T", err, tc.want)
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines = %d after ExecuteSafe, want <= baseline %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
