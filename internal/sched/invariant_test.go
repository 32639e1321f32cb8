package sched

import (
	"testing"

	"asmp/internal/cpu"
	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/trace"
	"asmp/internal/xrand"
)

// pairwiseFastIdleSlowQueued is the invariant predicate as a direct
// double loop over every core pair, the reference fastIdleSlowQueued's
// single fastest-first pass must agree with.
func pairwiseFastIdleSlowQueued(s *Scheduler) bool {
	for _, c := range s.cores {
		if c.offline || !c.idle() {
			continue
		}
		for _, v := range s.cores {
			if !v.offline && v.core.Duty < c.core.Duty && len(v.runq) > 0 {
				return true
			}
		}
	}
	return false
}

// TestFastIdleSlowQueuedMatchesPairwise drives the single-pass predicate
// through randomized core states — offline cores, running cores with
// empty queues, queued work behind a running task, and duty ties — and
// checks it against the pairwise reference.
func TestFastIdleSlowQueuedMatchesPairwise(t *testing.T) {
	r := xrand.New(5)
	duties := []float64{1, 0.5, 0.25, 0.125}
	env := sim.NewEnv(1)
	t.Cleanup(env.Close)
	outcomes := map[bool]int{}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + r.Intn(8)
		m := make([]float64, n)
		for i := range m {
			m[i] = duties[r.Intn(len(duties))]
		}
		s := &Scheduler{env: env, machine: cpu.NewMachine(m...)}
		s.cores = make([]*coreState, n)
		for i, c := range s.machine.Cores {
			cs := &coreState{core: c, offline: r.Bool(0.2)}
			if r.Bool(0.5) {
				cs.running = &task{}
			}
			for q := r.Intn(3); q > 0; q-- {
				cs.runq = append(cs.runq, &task{})
			}
			s.cores[i] = cs
		}
		s.byDuty = make([]*coreState, n)
		s.resortByDuty()
		got, want := s.fastIdleSlowQueued(), pairwiseFastIdleSlowQueued(s)
		if got != want {
			for _, c := range s.cores {
				t.Logf("core %d duty %v offline %v running %v queued %d", c.core.ID, c.core.Duty, c.offline, c.running != nil, len(c.runq))
			}
			t.Fatalf("trial %d: single pass = %v, pairwise = %v", trial, got, want)
		}
		outcomes[got]++
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("randomized states never exercised both outcomes: %v", outcomes)
	}
}

// TestLoadAvgMaintainedOnlyForNaive pins where the decayed load averages
// are kept: the naive balancer reads them, every other policy never
// does and leaves them at zero.
func TestLoadAvgMaintainedOnlyForNaive(t *testing.T) {
	for _, pol := range AllPolicies() {
		env := sim.NewEnv(1)
		s := New(env, cpu.NewMachine(1, 1, 0.125, 0.125), Defaults(pol))
		for w := 0; w < 6; w++ {
			env.Go("w", func(p *sim.Proc) {
				for i := 0; i < 20; i++ {
					p.Compute(2e-3 * cpu.BaseHz)
				}
			})
		}
		env.Run()
		sum := 0.0
		for _, c := range s.cores {
			sum += c.loadAvg
		}
		env.Close()
		if tracked := sum > 0; tracked != pol.balancesByLoadAvg() {
			t.Errorf("%v: load averages sum to %v, want maintained = %v", pol, sum, pol.balancesByLoadAvg())
		}
	}
	if !PolicyNaive.balancesByLoadAvg() {
		t.Fatal("the naive policy must maintain load averages")
	}
}

// eventCounter is a tracer that only counts scheduler events.
type eventCounter int

func (n *eventCounter) Record(trace.Event) { *n++ }

// BenchmarkSchedEvent measures the scheduler's host cost per event under
// the naive policy (which also maintains the decayed load averages) and
// the asymmetry-aware one: eight procs alternate 0.5 ms bursts with
// 0.2 ms sleeps on a two-fast, two-slow machine. ns/op is per burst;
// ns/event divides the whole run by the scheduler events it emitted.
func BenchmarkSchedEvent(b *testing.B) {
	for _, pol := range []Policy{PolicyNaive, PolicyAsymmetryAware} {
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			env := sim.NewEnv(1)
			s := New(env, cpu.NewMachine(1, 1, 0.125, 0.125), Defaults(pol))
			var events eventCounter
			s.SetTracer(&events)
			const procs = 8
			per := b.N/procs + 1
			for w := 0; w < procs; w++ {
				env.Go("w", func(p *sim.Proc) {
					for i := 0; i < per; i++ {
						p.Compute(0.5e-3 * cpu.BaseHz)
						p.Sleep(200 * simtime.Microsecond)
					}
				})
			}
			b.ResetTimer()
			env.Run()
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			env.Close()
		})
	}
}
