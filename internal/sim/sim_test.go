package sim

import (
	"fmt"
	"strings"
	"testing"

	"asmp/internal/simtime"
)

// unitExec is a trivial executor: every proc computes at rate 1 cycle per
// second with unlimited parallelism. It is enough to exercise the engine
// without the real scheduler.
type unitExec struct {
	env     *Env
	pending map[*Proc]*simtime.Event
}

func newUnitExec(env *Env) *unitExec {
	x := &unitExec{env: env, pending: map[*Proc]*simtime.Event{}}
	env.SetExecutor(x)
	return x
}

func (x *unitExec) Compute(p *Proc, cycles, memSeconds float64) {
	x.pending[p] = x.env.After(simtime.Duration(cycles+memSeconds), func() {
		delete(x.pending, p)
		p.FinishCompute()
	})
}

func (x *unitExec) Cancel(p *Proc) {
	if ev, ok := x.pending[p]; ok {
		x.env.CancelEvent(ev)
		delete(x.pending, p)
	}
}

func (x *unitExec) ProcExit(*Proc) {}

func newTestEnv(t *testing.T, seed uint64) *Env {
	t.Helper()
	e := NewEnv(seed)
	newUnitExec(e)
	t.Cleanup(e.Close)
	return e
}

func TestComputeAdvancesTime(t *testing.T) {
	e := newTestEnv(t, 1)
	var finished simtime.Time
	e.Go("w", func(p *Proc) {
		p.Compute(5)
		finished = p.Now()
	})
	e.Run()
	if finished != 5 {
		t.Fatalf("compute(5) finished at %v, want 5", finished)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	e := newTestEnv(t, 1)
	e.Go("w", func(p *Proc) {
		p.Compute(0)
		if p.Now() != 0 {
			t.Errorf("Compute(0) advanced time to %v", p.Now())
		}
	})
	e.Run()
}

func TestSleep(t *testing.T) {
	e := newTestEnv(t, 1)
	var at simtime.Time
	e.Go("s", func(p *Proc) {
		p.Sleep(3)
		p.Sleep(4)
		at = p.Now()
	})
	e.Run()
	if at != 7 {
		t.Fatalf("two sleeps ended at %v, want 7", at)
	}
}

func TestSleepUntil(t *testing.T) {
	e := newTestEnv(t, 1)
	var at simtime.Time
	e.Go("s", func(p *Proc) {
		p.SleepUntil(9)
		p.SleepUntil(2) // in the past: no-op
		at = p.Now()
	})
	e.Run()
	if at != 9 {
		t.Fatalf("SleepUntil ended at %v, want 9", at)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func(seed uint64) string {
		e := NewEnv(seed)
		newUnitExec(e)
		defer e.Close()
		var log []string
		for i := 0; i < 3; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Compute(float64(1 + i))
					log = append(log, fmt.Sprintf("%d@%v", i, p.Now()))
				}
			})
		}
		e.Run()
		return strings.Join(log, " ")
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed, different traces:\n%s\n%s", a, b)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	e := newTestEnv(t, 1)
	var mu Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		e.Go("locker", func(p *Proc) {
			for j := 0; j < 5; j++ {
				mu.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Compute(1)
				inside--
				mu.Unlock(p)
				p.Compute(0.5)
			}
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Fatalf("mutex admitted %d procs at once", maxInside)
	}
	if mu.Locked() {
		t.Fatal("mutex left locked")
	}
}

func TestMutexFIFO(t *testing.T) {
	e := newTestEnv(t, 1)
	var mu Mutex
	var order []int
	e.Go("holder", func(p *Proc) {
		mu.Lock(p)
		p.Compute(10)
		mu.Unlock(p)
	})
	for i := 0; i < 3; i++ {
		i := i
		e.Go("waiter", func(p *Proc) {
			p.Sleep(simtime.Duration(i + 1)) // stagger arrival: 1, 2, 3
			mu.Lock(p)
			order = append(order, i)
			mu.Unlock(p)
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("unlock order %v, want [0 1 2]", order)
	}
}

func TestMutexTryLock(t *testing.T) {
	e := newTestEnv(t, 1)
	var mu Mutex
	e.Go("a", func(p *Proc) {
		if !mu.TryLock(p) {
			t.Error("TryLock on free mutex failed")
		}
		p.Compute(5)
		mu.Unlock(p)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(1)
		if mu.TryLock(p) {
			t.Error("TryLock on held mutex succeeded")
		}
		p.Sleep(10)
		if !mu.TryLock(p) {
			t.Error("TryLock after release failed")
		}
		mu.Unlock(p)
	})
	e.Run()
}

func TestMutexErrors(t *testing.T) {
	e := newTestEnv(t, 1)
	var mu Mutex
	e.Go("a", func(p *Proc) {
		mu.Lock(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("recursive lock did not panic")
				}
			}()
			mu.Lock(p)
		}()
		mu.Unlock(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unlock of unheld mutex did not panic")
				}
			}()
			mu.Unlock(p)
		}()
	})
	e.Run()
}

func TestCondSignalBroadcast(t *testing.T) {
	e := newTestEnv(t, 1)
	var mu Mutex
	cond := NewCond(&mu)
	ready := 0
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			mu.Lock(p)
			ready++
			for ready < 100 { // predicate never true; released by broadcast below
				cond.Wait(p)
				woken++
				if woken >= 3 {
					break
				}
			}
			mu.Unlock(p)
		})
	}
	e.Go("kicker", func(p *Proc) {
		p.Sleep(1)
		cond.Broadcast(p.Env())
	})
	e.Run()
	if woken != 3 {
		t.Fatalf("broadcast woke %d, want 3", woken)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := newTestEnv(t, 1)
	var mu Mutex
	cond := NewCond(&mu)
	items := 0
	var got []int
	for i := 0; i < 2; i++ {
		i := i
		e.Go("consumer", func(p *Proc) {
			mu.Lock(p)
			for items == 0 {
				cond.Wait(p)
			}
			items--
			got = append(got, i)
			mu.Unlock(p)
		})
	}
	e.Go("producer", func(p *Proc) {
		p.Sleep(1)
		mu.Lock(p)
		items++
		cond.Signal(p.Env())
		mu.Unlock(p)
		p.Sleep(1)
		mu.Lock(p)
		items++
		cond.Signal(p.Env())
		mu.Unlock(p)
	})
	e.Run()
	if len(got) != 2 {
		t.Fatalf("consumed %d items, want 2", len(got))
	}
}

func TestCondWaitRequiresLock(t *testing.T) {
	e := newTestEnv(t, 1)
	var mu Mutex
	cond := NewCond(&mu)
	e.Go("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Wait without lock did not panic")
			}
			panic(killSignal{}) // unwind cleanly
		}()
		cond.Wait(p)
	})
	e.Run()
}

func TestBarrierRounds(t *testing.T) {
	e := newTestEnv(t, 1)
	b := NewBarrier(3)
	var trace []string
	for i := 0; i < 3; i++ {
		i := i
		e.Go("party", func(p *Proc) {
			for round := 0; round < 2; round++ {
				p.Compute(float64(i + 1)) // unequal work
				b.Wait(p)
				trace = append(trace, fmt.Sprintf("r%d:p%d@%v", round, i, p.Now()))
			}
		})
	}
	e.Run()
	if b.Rounds() != 2 {
		t.Fatalf("rounds = %d, want 2", b.Rounds())
	}
	// All parties leave round 0 at t=3 (slowest) and round 1 at t=6.
	for _, s := range trace {
		if strings.HasPrefix(s, "r0:") && !strings.HasSuffix(s, "@3.000s") {
			t.Fatalf("round 0 release at wrong time: %v", trace)
		}
		if strings.HasPrefix(s, "r1:") && !strings.HasSuffix(s, "@6.000s") {
			t.Fatalf("round 1 release at wrong time: %v", trace)
		}
	}
}

func TestBarrierValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0)
}

func TestWaitGroup(t *testing.T) {
	e := newTestEnv(t, 1)
	wg := NewWaitGroup(e)
	wg.Add(3)
	var doneAt simtime.Time
	for i := 0; i < 3; i++ {
		i := i
		e.Go("worker", func(p *Proc) {
			p.Compute(float64(i + 1))
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 3 {
		t.Fatalf("WaitGroup released at %v, want 3", doneAt)
	}
	if wg.Count() != 0 {
		t.Fatalf("count = %d", wg.Count())
	}
}

func TestWaitGroupImmediate(t *testing.T) {
	e := newTestEnv(t, 1)
	wg := NewWaitGroup(e)
	passed := false
	e.Go("w", func(p *Proc) {
		wg.Wait(p) // zero counter: no block
		passed = true
	})
	e.Run()
	if !passed {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	e := newTestEnv(t, 1)
	wg := NewWaitGroup(e)
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter did not panic")
		}
	}()
	wg.Add(-1)
}

func TestSemaphore(t *testing.T) {
	e := newTestEnv(t, 1)
	sem := NewSemaphore(2)
	inside, maxInside := 0, 0
	for i := 0; i < 5; i++ {
		e.Go("user", func(p *Proc) {
			sem.Acquire(p, 1)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Compute(1)
			inside--
			sem.Release(p.Env(), 1)
		})
	}
	e.Run()
	if maxInside != 2 {
		t.Fatalf("semaphore admitted %d, want 2", maxInside)
	}
	if sem.Permits() != 2 {
		t.Fatalf("permits = %d, want 2", sem.Permits())
	}
}

func TestSemaphoreFIFOBigRequest(t *testing.T) {
	e := newTestEnv(t, 1)
	sem := NewSemaphore(2)
	var order []string
	e.Go("holder", func(p *Proc) {
		sem.Acquire(p, 2)
		p.Compute(10)
		sem.Release(p.Env(), 2)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(1)
		sem.Acquire(p, 2)
		order = append(order, "big")
		sem.Release(p.Env(), 2)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2)
		sem.Acquire(p, 1)
		order = append(order, "small")
		sem.Release(p.Env(), 1)
	})
	e.Run()
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("grant order %v; FIFO must serve the earlier big request first", order)
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := newTestEnv(t, 1)
	sem := NewSemaphore(1)
	e.Go("w", func(p *Proc) {
		if !sem.TryAcquire(p, 1) {
			t.Error("TryAcquire on free semaphore failed")
		}
		if sem.TryAcquire(p, 1) {
			t.Error("TryAcquire on empty semaphore succeeded")
		}
		sem.Release(p.Env(), 1)
	})
	e.Run()
}

func TestQueuePutGet(t *testing.T) {
	e := newTestEnv(t, 1)
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1)
			q.Put(i)
		}
		q.Close()
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestQueueKernelPut(t *testing.T) {
	e := newTestEnv(t, 1)
	q := NewQueue[string](e)
	var got string
	e.Go("consumer", func(p *Proc) {
		v, ok := q.Get(p)
		if ok {
			got = v
		}
	})
	e.After(5, func() { q.Put("from-kernel") })
	e.Run()
	if got != "from-kernel" {
		t.Fatalf("got %q", got)
	}
}

func TestQueueTryGet(t *testing.T) {
	e := newTestEnv(t, 1)
	q := NewQueue[int](e)
	e.Go("c", func(p *Proc) {
		if _, ok := q.TryGet(p); ok {
			t.Error("TryGet on empty queue succeeded")
		}
		q.Put(1)
		if v, ok := q.TryGet(p); !ok || v != 1 {
			t.Error("TryGet on non-empty queue failed")
		}
	})
	e.Run()
}

func TestQueueCloseUnblocksAll(t *testing.T) {
	e := newTestEnv(t, 1)
	q := NewQueue[int](e)
	unblocked := 0
	for i := 0; i < 3; i++ {
		e.Go("c", func(p *Proc) {
			_, ok := q.Get(p)
			if !ok {
				unblocked++
			}
		})
	}
	e.After(1, func() { q.Close() })
	e.Run()
	if unblocked != 3 {
		t.Fatalf("unblocked %d, want 3", unblocked)
	}
	if !q.Closed() {
		t.Fatal("queue not closed")
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := newTestEnv(t, 1)
	q := NewQueue[int](e)
	served := map[int]int{}
	for i := 0; i < 2; i++ {
		i := i
		e.Go("c", func(p *Proc) {
			for {
				_, ok := q.Get(p)
				if !ok {
					return
				}
				served[i]++
				p.Compute(1)
			}
		})
	}
	e.After(0.1, func() {
		for j := 0; j < 10; j++ {
			q.Put(j)
		}
		q.Close()
	})
	e.Run()
	if served[0]+served[1] != 10 {
		t.Fatalf("served %v, want 10 total", served)
	}
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("work not shared: %v", served)
	}
}

func TestKillSleepingProc(t *testing.T) {
	e := newTestEnv(t, 1)
	reached := false
	p := e.Go("sleeper", func(p *Proc) {
		p.Sleep(1000)
		reached = true
	})
	e.After(1, func() { e.Kill(p) })
	e.Run()
	if reached {
		t.Fatal("killed proc continued past Sleep")
	}
	if !p.Done() {
		t.Fatal("killed proc not done")
	}
	if e.NumLive() != 0 {
		t.Fatalf("live procs = %d", e.NumLive())
	}
}

func TestKillComputingProc(t *testing.T) {
	e := newTestEnv(t, 1)
	reached := false
	p := e.Go("cruncher", func(p *Proc) {
		p.Compute(1000)
		reached = true
	})
	e.After(1, func() { e.Kill(p) })
	e.Run()
	if reached || !p.Done() {
		t.Fatal("kill during compute failed")
	}
}

func TestKillBlockedOnMutex(t *testing.T) {
	e := newTestEnv(t, 1)
	var mu Mutex
	reached := false
	e.Go("holder", func(p *Proc) {
		mu.Lock(p)
		p.Compute(100)
		mu.Unlock(p)
	})
	victim := e.Go("victim", func(p *Proc) {
		p.Sleep(1)
		mu.Lock(p)
		reached = true
		mu.Unlock(p)
	})
	e.After(2, func() { e.Kill(victim) })
	e.Run()
	if reached {
		t.Fatal("killed proc acquired the mutex")
	}
	if mu.Locked() {
		t.Fatal("mutex leaked after dead waiter was skipped")
	}
}

func TestExit(t *testing.T) {
	e := newTestEnv(t, 1)
	after := false
	e.Go("quitter", func(p *Proc) {
		p.Compute(1)
		p.Exit()
		after = true
	})
	e.Run()
	if after {
		t.Fatal("code ran after Exit")
	}
}

func TestOnExit(t *testing.T) {
	e := newTestEnv(t, 1)
	hooked := false
	p := e.Go("w", func(p *Proc) { p.Compute(1) })
	p.OnExit(func() { hooked = true })
	e.Run()
	if !hooked {
		t.Fatal("OnExit hook did not run")
	}
}

func TestCloseReapsEverything(t *testing.T) {
	e := NewEnv(1)
	newUnitExec(e)
	var mu Mutex
	e.Go("holder", func(p *Proc) {
		mu.Lock(p)
		p.Sleep(simtime.Never) // parked forever
	})
	for i := 0; i < 5; i++ {
		e.Go("waiter", func(p *Proc) {
			p.Compute(1)
			mu.Lock(p)
			mu.Unlock(p)
		})
	}
	e.RunUntil(10)
	if e.NumLive() == 0 {
		t.Fatal("expected live procs before Close")
	}
	e.Close()
	if e.NumLive() != 0 {
		t.Fatalf("live after Close: %d", e.NumLive())
	}
}

func TestProcPanicsPropagate(t *testing.T) {
	e := NewEnv(1)
	newUnitExec(e)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("workload panic did not propagate to Run")
		} else if !strings.Contains(fmt.Sprint(r), `sim: proc "bad" panicked: boom`) {
			t.Fatalf("unexpected panic %v", r)
		}
		e.Close()
	}()
	e.Go("bad", func(p *Proc) {
		p.Compute(1)
		panic("boom")
	})
	e.Run()
}

func TestContextEnforcement(t *testing.T) {
	e := newTestEnv(t, 1)
	var stray *Proc
	e.Go("a", func(p *Proc) {
		stray = p
		p.Compute(5)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(1)
		defer func() {
			if recover() == nil {
				t.Error("cross-context op did not panic")
			}
		}()
		stray.Compute(1) // b driving a's proc: must panic
	})
	func() {
		defer func() { recover() }() // the misuse also poisons the run; swallow
		e.Run()
	}()
}

func TestCPUSet(t *testing.T) {
	var s CPUSet
	if !s.Has(0) || !s.Has(63) {
		t.Fatal("empty set must contain every core")
	}
	s = s.Set(2).Set(5)
	if !s.Has(2) || !s.Has(5) || s.Has(3) {
		t.Fatal("set/has broken")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
	if !Single(7).Has(7) || Single(7).Has(6) {
		t.Fatal("Single broken")
	}
}

func TestRandPerProcIndependence(t *testing.T) {
	e := newTestEnv(t, 1)
	vals := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		e.Go("r", func(p *Proc) {
			vals[p.Rand().Uint64()] = true
		})
	}
	e.Run()
	if len(vals) != 4 {
		t.Fatalf("per-proc rand streams collided: %d unique", len(vals))
	}
}

func TestGoAfterClosePanics(t *testing.T) {
	e := NewEnv(1)
	newUnitExec(e)
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Go on closed env did not panic")
		}
	}()
	e.Go("late", func(p *Proc) {})
}
