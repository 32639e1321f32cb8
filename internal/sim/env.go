// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine. Simulated threads ("procs") are written as ordinary
// Go functions; each runs as an iter.Pull coroutine that the kernel loop
// resumes and the proc suspends, so exactly one context runs at a time
// and a simulation is a pure function of its inputs and seed.
//
// The engine itself knows nothing about CPUs. Compute requests are
// delegated to an Executor — the OS-scheduler model in internal/sched —
// which decides where and when the requested cycles retire. Everything
// else (sleeping, locks, condition variables, barriers, queues) is
// handled inside this package.
package sim

import (
	"fmt"
	"iter"
	"math/bits"
	"sort"
	"strings"

	"asmp/internal/simtime"
	"asmp/internal/xrand"
)

// CPUSet is a bitmask of core IDs a proc may run on. The zero value means
// "any core".
type CPUSet uint64

// Set returns s with core id added.
func (s CPUSet) Set(id int) CPUSet { return s | 1<<uint(id) }

// Has reports whether core id is in the set. An empty set contains every
// core.
func (s CPUSet) Has(id int) bool { return s == 0 || s&(1<<uint(id)) != 0 }

// Count returns the number of explicitly set cores (0 for "any").
func (s CPUSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Single returns a set containing only core id.
func Single(id int) CPUSet { return CPUSet(1) << uint(id) }

// Executor models CPU execution for the engine. Implementations must be
// single-threaded (they are only invoked from the kernel context or the
// active proc's context, never concurrently) and must invoke
// p.FinishCompute from a scheduled event, never synchronously from
// Compute.
type Executor interface {
	// Compute retires cycles of work for p, honouring p's affinity, and
	// calls p.FinishCompute at the simulated time the work completes.
	// memSeconds is additional memory-stall time that occupies the core
	// for a fixed wall-clock duration regardless of the core's clock
	// duty cycle — the paper's stop-clock mechanism slows the processor
	// but not the memory system.
	Compute(p *Proc, cycles, memSeconds float64)
	// Cancel aborts an in-flight Compute for p; FinishCompute must not
	// be called afterwards. Cancelling a proc with no in-flight compute
	// is a no-op.
	Cancel(p *Proc)
	// ProcExit tells the executor p has exited and will never compute
	// again, so any per-proc state can be released.
	ProcExit(p *Proc)
}

// Env is a simulation environment: the event queue, the proc table and
// the executor. Create one with NewEnv, attach an executor, spawn procs
// with Go, and drive it with Run or RunUntil.
type Env struct {
	queue simtime.Queue
	rand  *xrand.Rand
	exec  Executor

	nextPID int
	// live holds every spawned, not-yet-retired proc. Order is
	// unspecified (retirement swap-removes); consumers that need
	// determinism sort by PID. A slice beats a map here because spawn
	// and exit are hot paths and membership is tracked by Proc.liveIdx.
	live     []*Proc
	running  *Proc
	panicVal any
	closed   bool

	limits  Limits
	cancel  <-chan struct{}
	events  int
	tripped error

	// procSlab and randSlab batch the per-spawn allocations: spawning N
	// procs costs N/32 backing allocations for the Proc structs and
	// their random streams instead of 2N. Slots are handed out once and
	// never recycled, so proc identity is unaffected.
	procSlab []Proc
	randSlab []xrand.Rand
}

// NewEnv returns an environment whose randomness derives entirely from
// seed.
func NewEnv(seed uint64) *Env {
	return &Env{rand: xrand.New(seed)}
}

// SetExecutor installs the CPU model. It must be called before any proc
// issues a Compute.
func (e *Env) SetExecutor(x Executor) { e.exec = x }

// Executor returns the installed CPU model (nil if none).
func (e *Env) Executor() Executor { return e.exec }

// Now returns the current simulated time.
func (e *Env) Now() simtime.Time { return e.queue.Now() }

// Rand returns the environment's root random stream. Prefer per-proc
// streams (Proc.Rand) inside workload code.
func (e *Env) Rand() *xrand.Rand { return e.rand }

// After schedules fn to run in kernel context d from now.
//
//asmp:allow refdiscipline closure events are never recycled through the free list (simtime recycles only payload events), so the bare pointer stays valid for the simulation's lifetime
func (e *Env) After(d simtime.Duration, fn func()) *simtime.Event {
	return e.queue.After(d, fn)
}

// At schedules fn to run in kernel context at time t.
//
//asmp:allow refdiscipline closure events are never recycled through the free list, so the bare pointer stays valid for the simulation's lifetime
func (e *Env) At(t simtime.Time, fn func()) *simtime.Event {
	return e.queue.Schedule(t, fn)
}

// AfterCall schedules h.HandleEvent(kind, arg) to run in kernel context
// d from now, through the queue's allocation-free payload path. The
// returned Ref is generation-checked (see simtime.ScheduleCall), so a
// handle held past firing is inert rather than dangling.
func (e *Env) AfterCall(d simtime.Duration, h simtime.Handler, kind int, arg any) simtime.Ref {
	return e.queue.AfterCall(d, h, kind, arg)
}

// AtCall schedules h.HandleEvent(kind, arg) to run in kernel context at
// time t, with AfterCall's allocation-free contract.
func (e *Env) AtCall(t simtime.Time, h simtime.Handler, kind int, arg any) simtime.Ref {
	return e.queue.ScheduleCall(t, h, kind, arg)
}

// CancelEvent cancels a pending event scheduled with After or At.
func (e *Env) CancelEvent(ev *simtime.Event) { e.queue.Cancel(ev) }

// CancelCall cancels a pending payload event scheduled with AfterCall or
// AtCall. A zero or stale Ref is a no-op.
func (e *Env) CancelCall(r simtime.Ref) { e.queue.CancelRef(r) }

// NumLive returns the number of procs that have been spawned and have not
// yet exited.
func (e *Env) NumLive() int { return len(e.live) }

// Event kinds for the engine's typed (allocation-free) events. The
// payload is always the subject *Proc; Env is the simtime.Handler.
const (
	evStart = iota // first handoff to a freshly spawned proc
	evWake         // resume a parked proc at the current time
	evSleep        // a Proc.Sleep timer expired
)

// HandleEvent implements simtime.Handler, dispatching the engine's
// typed events. The (kind, *Proc) payload replaces the per-call closure
// the hot wake/start/sleep paths used to allocate.
func (e *Env) HandleEvent(kind int, arg any) {
	p := arg.(*Proc)
	switch kind {
	case evStart:
		e.start(p)
	case evWake:
		e.resume(p)
	case evSleep:
		p.sleepEv = simtime.Ref{}
		e.resume(p)
	default:
		panic(fmt.Sprintf("sim: unknown event kind %d", kind))
	}
}

// Go spawns a new proc running fn. The proc starts at the current
// simulated time, after the caller yields control. Go may be called from
// kernel context or from a running proc.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Go on closed Env")
	}
	e.nextPID++
	if len(e.procSlab) == 0 {
		e.procSlab = make([]Proc, 32)
	}
	p := &e.procSlab[0]
	e.procSlab = e.procSlab[1:]
	if len(e.randSlab) == 0 {
		e.randSlab = make([]xrand.Rand, 32)
	}
	rng := &e.randSlab[0]
	e.randSlab = e.randSlab[1:]
	e.rand.SplitInto(rng)
	*p = Proc{
		env:  e,
		id:   e.nextPID,
		name: name,
		fn:   fn,
		rand: rng,
	}
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
	e.queue.AfterCall(0, e, evStart, p)
	return p
}

// start creates p's coroutine and gives it its first slice of control.
func (e *Env) start(p *Proc) {
	if p.done || p.killed {
		// Killed before it ever ran: just retire it.
		p.done = true
		e.finish(p)
		return
	}
	// The body recovers every panic itself, so the coroutine always
	// runs to completion and stop is never needed.
	p.next, _ = iter.Pull(p.body)
	p.waiting = true
	e.resume(p)
}

// resume transfers control to p until its next yield. Kernel context only.
func (e *Env) resume(p *Proc) {
	if p.done || p.next == nil || !p.waiting {
		return
	}
	prev := e.running
	e.running = p
	p.waiting = false
	p.next()
	e.running = prev
	if p.done {
		e.finish(p)
	}
	if e.panicVal != nil {
		v := e.panicVal
		e.panicVal = nil
		panic(v)
	}
}

// finish retires an exited proc.
func (e *Env) finish(p *Proc) {
	if p.liveIdx < 0 {
		return
	}
	last := len(e.live) - 1
	moved := e.live[last]
	e.live[p.liveIdx] = moved
	moved.liveIdx = p.liveIdx
	e.live[last] = nil
	e.live = e.live[:last]
	p.liveIdx = -1
	// The coroutine has returned; drop it so the proc's slab slot does
	// not pin it for the env's lifetime.
	p.next, p.yieldFn = nil, nil
	if e.exec != nil {
		e.exec.ProcExit(p)
	}
	for _, fn := range p.exitHooks {
		fn()
	}
	p.exitHooks = nil
}

// wake schedules p to be resumed at the current time, after the active
// context yields. It is the only correct way to unblock a proc. The
// typed event allocates nothing: the queue recycles it once it fires.
func (e *Env) wake(p *Proc) {
	if p.done {
		return
	}
	e.queue.AfterCall(0, e, evWake, p)
}

// Wake schedules a proc parked with Proc.Block to resume at the current
// time, after the active context yields. Waking a proc that is not
// parked, or is dead, is a no-op at resume time, but spurious wakeups of
// procs parked on *other* conditions corrupt primitives — only wake procs
// you parked.
func (e *Env) Wake(p *Proc) { e.wake(p) }

// Kill requests that p terminate the next time it would run. Any pending
// compute or sleep is cancelled. Kill is intended for teardown: a killed
// proc blocked inside a synchronization primitive unwinds immediately and
// may leave that primitive held (see package comment on sync.go).
func (e *Env) Kill(p *Proc) {
	if p == nil || p.done || p.killed {
		return
	}
	p.killed = true
	if p == e.running {
		// Self-kill: unwinds at the proc's next yield, or immediately if
		// it calls Exit. Nothing else to do here.
		return
	}
	// CancelRef is inert on a zero or stale Ref, so no pending-check is
	// needed before cancelling a sleep timer that may have already fired.
	e.queue.CancelRef(p.sleepEv)
	p.sleepEv = simtime.Ref{}
	if e.exec != nil {
		e.exec.Cancel(p)
	}
	e.wake(p)
}

// KillAll kills every live proc. Call Run afterwards (or let the caller's
// Run continue) to let them unwind. Procs are killed in ascending PID
// order — never map-iteration order — so the wake events Kill schedules
// get deterministic sequence numbers and teardown replays identically
// run to run.
func (e *Env) KillAll() {
	procs := make([]*Proc, len(e.live))
	copy(procs, e.live)
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	for _, p := range procs {
		if p != e.running {
			e.Kill(p)
		}
	}
}

// Run dispatches events until none remain. It returns the number of
// events fired. Live procs may remain blocked when Run returns (e.g. a
// server waiting for requests that will never come); use Close to reap
// them. If limits are armed (SetLimits) and a guard trips, Run panics
// with the structured error; use RunGuarded to receive it as a value.
func (e *Env) Run() int {
	n, err := e.drive(simtime.Never)
	if err != nil {
		panic(err)
	}
	return n
}

// RunUntil dispatches events until the queue is empty or the next event
// would fire after the deadline, then advances the clock to the deadline.
// If limits are armed (SetLimits) and a guard trips — including deadlock
// detection on an early quiesce — RunUntil panics with the structured
// error; use RunGuarded to receive it as a value.
func (e *Env) RunUntil(deadline simtime.Time) int {
	n, err := e.drive(deadline)
	if err != nil {
		panic(err)
	}
	return n
}

// Close kills all remaining procs and drains the queue so every proc's
// coroutine runs to completion and none leaks. The environment must not
// be used afterwards.
func (e *Env) Close() {
	if e.closed {
		return
	}
	// Repeated rounds: unwinding procs can spawn wakeups for others.
	for i := 0; i < 1000 && len(e.live) > 0; i++ {
		e.KillAll()
		e.queue.Run()
	}
	e.closed = true
	if len(e.live) > 0 {
		panic(fmt.Sprintf("sim: %d procs failed to terminate on Close: %s",
			len(e.live), strings.Join(e.liveNames(), ", ")))
	}
}

// killSignal is the panic value used to unwind killed procs.
type killSignal struct{}
