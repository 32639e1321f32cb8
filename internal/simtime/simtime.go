// Package simtime provides the virtual-time foundation of the simulator:
// a Time type measured in seconds of simulated wall-clock time, and an
// event queue ordered by time with stable FIFO tie-breaking so that
// simulations are fully deterministic.
//
// The queue is engineered for the engine's hot path (see DESIGN.md §8):
// a concrete 4-ary min-heap over *Event (no interface boxing, shallower
// than a binary heap for the same fan-out), a FIFO ring buffer that
// lets the dominant at-now traffic (wakeups, After(0, ...)) bypass the
// heap entirely, and a per-queue free-list so payload-based events
// (ScheduleCall/AfterCall) allocate nothing in steady state. Dispatch
// order is exactly the (time, sequence) order a single heap would
// produce: every at-now event necessarily carries a later sequence
// number than any heap event pending at the same instant, so draining
// heap events at now before ring events preserves FIFO tie-breaking
// bit-for-bit.
package simtime

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in seconds since the start of the
// simulation. Negative times are invalid except for the sentinel Never.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration = Time

// Common durations, for readability at call sites.
const (
	Nanosecond  Duration = 1e-9
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
)

// Never is a sentinel meaning "no scheduled time". It sorts after every
// valid time.
const Never Time = Time(math.MaxFloat64)

// String renders the time with an auto-selected unit.
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t >= Minute:
		return fmt.Sprintf("%.3fmin", float64(t/Minute))
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t/Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t/Microsecond))
	default:
		return fmt.Sprintf("%.3fns", float64(t/Nanosecond))
	}
}

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Handler receives payload-based events scheduled with ScheduleCall or
// AfterCall. A single handler serves many event kinds; kind and arg are
// whatever the scheduling site passed, so one long-lived handler plus a
// pointer payload replaces a fresh closure per event.
type Handler interface {
	HandleEvent(kind int, arg any)
}

// Placement sentinels for Event.where (values >= 0 are heap indices).
const (
	whereNone          = -1 // not queued (fired, cancelled, or recycled)
	whereRing          = -2 // pending in the at-now ring
	whereRingCancelled = -3 // cancelled but its ring slot not yet drained
)

// Event is a callback scheduled to fire at a specific simulated time.
// It carries either a closure (Schedule/After) or a handler plus
// payload (ScheduleCall/AfterCall); the latter form is recycled through
// the queue's free-list and is therefore handed out as a
// generation-checked Ref rather than a bare pointer.
type Event struct {
	at  Time
	seq uint64

	fire func()  // closure form
	h    Handler // payload form: h.HandleEvent(kind, arg)
	kind int
	arg  any

	where   int    // heap index, or a where* sentinel
	recycle bool   // payload events return to the free-list
	gen     uint64 // bumped by alloc; stale Refs carry an older value
}

// At returns the time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Scheduled reports whether the event is still pending in a queue.
func (e *Event) Scheduled() bool { return e.where >= 0 || e.where == whereRing }

// Ref is a generation-checked handle to a payload event scheduled with
// ScheduleCall/AfterCall. Payload events recycle through the queue's
// free-list, so a bare *Event held past firing could alias a completely
// unrelated pending event; a Ref additionally captures the event's
// generation at scheduling time, and CancelRef/Scheduled on a stale Ref
// are inert no-ops (one uint64 compare, no allocation). The zero Ref
// refers to nothing.
type Ref struct {
	e   *Event
	gen uint64
}

// Scheduled reports whether the referenced event is still pending.
// A zero or stale Ref reports false.
func (r Ref) Scheduled() bool { return r.e != nil && r.e.gen == r.gen && r.e.Scheduled() }

// Queue is a time-ordered event queue. Events at equal times fire in the
// order they were scheduled (FIFO), which keeps simulations deterministic.
// The zero value is ready to use.
type Queue struct {
	h eventHeap // events strictly after now

	// ring holds events scheduled exactly at now, in FIFO order:
	// live slots occupy ring[rhead:]. The slice resets (retaining its
	// backing array) whenever the instant fully drains, which it must
	// before the clock can advance.
	ring     []*Event
	rhead    int
	ringLive int // live (non-cancelled) slots in ring[rhead:]

	free []*Event // recycled payload events

	seq uint64
	now Time
}

// Now returns the current simulated time: the fire time of the most
// recently dispatched event (0 before any event fires).
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) + q.ringLive }

// TimeError is the panic value for scheduling an event at a time that
// is not at or after the queue's current time: one in the past, or NaN.
// Either is a simulation bug; a NaN time admitted to the heap would
// compare false against everything and wedge the run.
type TimeError struct {
	At  Time // the requested fire time
	Now Time // the queue's current time
}

// Error implements error.
func (e *TimeError) Error() string {
	return fmt.Sprintf("simtime: scheduling event at %v before now %v", e.At, e.Now)
}

// alloc prepares an Event (recycled when possible) for time at.
func (q *Queue) alloc(at Time) *Event {
	// Negated so a NaN time fails too, at no extra compare.
	if !(at >= q.now) {
		panic(&TimeError{At: at, Now: q.now})
	}
	q.seq++
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		// Grow the pool a slab at a time: one backing allocation covers
		// the next 32 events, so a fresh queue reaches its steady-state
		// population in O(peak/32) allocations instead of O(peak).
		slab := make([]Event, 32)
		for i := range slab[1:] {
			q.free = append(q.free, &slab[1+i])
		}
		e = &slab[0]
	}
	e.at = at
	e.seq = q.seq
	e.where = whereNone
	e.gen++
	return e
}

// insert places a prepared event: at-now events take the ring fast
// path, later ones the heap.
func (q *Queue) insert(e *Event) {
	if e.at == q.now {
		e.where = whereRing
		q.ring = append(q.ring, e)
		q.ringLive++
		return
	}
	q.h.push(e)
}

// release clears an event's payload and returns recyclable ones to the
// free-list.
func (q *Queue) release(e *Event) {
	e.fire = nil
	e.h = nil
	e.arg = nil
	e.where = whereNone
	if e.recycle {
		e.recycle = false
		q.free = append(q.free, e)
	}
}

// Schedule enqueues fn to run at time at. It panics with a *TimeError if
// at precedes the current time or is NaN, since either indicates a
// simulation bug.
func (q *Queue) Schedule(at Time, fn func()) *Event {
	if fn == nil {
		panic("simtime: nil event function")
	}
	e := q.alloc(at)
	e.fire = fn
	q.insert(e)
	return e
}

// After enqueues fn to run d seconds from the current time.
func (q *Queue) After(d Duration, fn func()) *Event {
	return q.Schedule(q.now+d, fn)
}

// ScheduleCall enqueues h.HandleEvent(kind, arg) to run at time at.
// Unlike Schedule it allocates nothing in steady state: the Event comes
// from the queue's free-list and returns to it when the event fires or
// is cancelled. The returned Ref is generation-checked, so holding it
// past firing is harmless — CancelRef and Scheduled on a Ref whose event
// has since fired (or been recycled into a new event) do nothing.
func (q *Queue) ScheduleCall(at Time, h Handler, kind int, arg any) Ref {
	if h == nil {
		panic("simtime: nil event handler")
	}
	e := q.alloc(at)
	e.h = h
	e.kind = kind
	e.arg = arg
	e.recycle = true
	q.insert(e)
	return Ref{e: e, gen: e.gen}
}

// AfterCall enqueues h.HandleEvent(kind, arg) to run d seconds from the
// current time, with ScheduleCall's allocation-free contract.
func (q *Queue) AfterCall(d Duration, h Handler, kind int, arg any) Ref {
	return q.ScheduleCall(q.now+d, h, kind, arg)
}

// CancelRef removes the pending payload event r refers to. A zero Ref,
// or one whose event already fired, was already cancelled, or has been
// recycled into a different event, is an inert no-op. It returns whether
// the event was pending.
func (q *Queue) CancelRef(r Ref) bool {
	if r.e == nil || r.e.gen != r.gen {
		return false
	}
	return q.Cancel(r.e)
}

// Cancel removes a pending closure event (Schedule/After). Cancelling an
// event that already fired or was already cancelled is a no-op. Payload
// events are cancelled through their Ref (see CancelRef). It returns
// whether the event was pending.
func (q *Queue) Cancel(e *Event) bool {
	if e == nil {
		return false
	}
	switch {
	case e.where >= 0:
		q.h.remove(e.where)
		q.release(e)
		return true
	case e.where == whereRing:
		// The ring slot is drained (and the event recycled) lazily by
		// the dispatch loop; only the liveness bookkeeping happens now.
		e.where = whereRingCancelled
		e.fire = nil
		e.h = nil
		e.arg = nil
		q.ringLive--
		return true
	}
	return false
}

// ringPop removes and returns the earliest live ring event, draining
// cancelled slots along the way. Call only when ringLive > 0.
func (q *Queue) ringPop() *Event {
	for {
		e := q.ring[q.rhead]
		q.ring[q.rhead] = nil
		q.rhead++
		if q.rhead == len(q.ring) {
			q.ring = q.ring[:0]
			q.rhead = 0
		}
		if e.where == whereRingCancelled {
			e.where = whereNone
			if e.recycle {
				e.recycle = false
				q.free = append(q.free, e)
			}
			continue
		}
		q.ringLive--
		return e
	}
}

// flushRing recycles trailing cancelled slots once no live ring events
// remain, so an idle queue retains nothing.
func (q *Queue) flushRing() {
	for q.rhead < len(q.ring) {
		e := q.ring[q.rhead]
		q.ring[q.rhead] = nil
		q.rhead++
		e.where = whereNone
		if e.recycle {
			e.recycle = false
			q.free = append(q.free, e)
		}
	}
	q.ring = q.ring[:0]
	q.rhead = 0
}

// next removes and returns the earliest pending event, or nil. Heap
// events pending at exactly now fire before ring events: they were
// necessarily scheduled earlier (an at-now Schedule always lands in the
// ring), so this is precisely (time, seq) order.
func (q *Queue) next() *Event {
	if q.ringLive > 0 {
		if len(q.h) > 0 && q.h[0].at <= q.now {
			return q.h.pop()
		}
		return q.ringPop()
	}
	if q.rhead < len(q.ring) {
		q.flushRing()
	}
	if len(q.h) > 0 {
		return q.h.pop()
	}
	return nil
}

// Step dispatches the single earliest event, advancing the clock to its
// fire time. It returns false if the queue is empty.
func (q *Queue) Step() bool {
	e := q.next()
	if e == nil {
		return false
	}
	q.now = e.at
	fire, h, kind, arg := e.fire, e.h, e.kind, e.arg
	// Release before invoking so the handler's own scheduling reuses
	// the just-freed Event immediately.
	q.release(e)
	if h != nil {
		h.HandleEvent(kind, arg)
	} else {
		fire()
	}
	return true
}

// RunUntil dispatches events until the queue is empty or the next event
// would fire after the deadline. It returns the number of events fired.
// Events scheduled exactly at the deadline do fire.
func (q *Queue) RunUntil(deadline Time) int {
	n := 0
	for {
		t := q.PeekTime()
		if t == Never || t > deadline {
			break
		}
		q.Step()
		n++
	}
	if q.now < deadline && deadline != Never {
		q.now = deadline
	}
	return n
}

// AdvanceTo moves the clock forward to t without dispatching anything.
// It is the primitive RunUntil-style drivers use to settle the clock on
// their deadline after the last in-range event has fired. Advancing past
// a pending event would violate causality and panics; advancing to the
// past or to Never is a no-op.
func (q *Queue) AdvanceTo(t Time) {
	if t == Never || t <= q.now {
		return
	}
	if q.ringLive > 0 {
		panic(fmt.Sprintf("simtime: AdvanceTo(%v) would skip event at %v", t, q.now))
	}
	if len(q.h) > 0 && q.h[0].at < t {
		panic(fmt.Sprintf("simtime: AdvanceTo(%v) would skip event at %v", t, q.h[0].at))
	}
	q.now = t
}

// Run dispatches events until the queue drains, returning the count.
func (q *Queue) Run() int {
	n := 0
	for q.Step() {
		n++
	}
	return n
}

// PeekTime returns the fire time of the earliest pending event, or Never
// if the queue is empty.
func (q *Queue) PeekTime() Time {
	if q.ringLive > 0 {
		return q.now
	}
	if len(q.h) == 0 {
		return Never
	}
	return q.h[0].at
}

// eventHeap is a concrete 4-ary min-heap over *Event ordered by
// (time, sequence). Four-way fan-out halves the tree depth of a binary
// heap, and the concrete element type avoids container/heap's per-op
// interface calls and `any` boxing.
type eventHeap []*Event

// less orders events by (time, sequence).
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	e.where = len(*h) - 1
	h.siftUp(e.where)
}

func (h *eventHeap) pop() *Event {
	s := *h
	e := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[0].where = 0
	s[n] = nil
	*h = s[:n]
	if n > 1 {
		h.siftDown(0)
	}
	e.where = whereNone
	return e
}

// remove deletes the event at heap index i.
func (h *eventHeap) remove(i int) {
	s := *h
	n := len(s) - 1
	e := s[i]
	if i != n {
		s[i] = s[n]
		s[i].where = i
	}
	s[n] = nil
	*h = s[:n]
	if i != n {
		h.siftDown(i)
		h.siftUp(i)
	}
	e.where = whereNone
}

func (h eventHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].where = i
		i = p
	}
	h[i] = e
	e.where = i
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Find the smallest of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], e) {
			break
		}
		h[i] = h[m]
		h[i].where = i
		i = m
	}
	h[i] = e
	e.where = i
}
