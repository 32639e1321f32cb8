package simtime

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueOrdersByTime(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(3, func() { got = append(got, 3) })
	q.Schedule(1, func() { got = append(got, 1) })
	q.Schedule(2, func() { got = append(got, 2) })
	q.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQueueFIFOAtEqualTimes(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.Schedule(5, func() { got = append(got, i) })
	}
	q.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("events at equal time fired out of order: got[%d] = %d", i, v)
		}
	}
}

func TestQueueNowAdvances(t *testing.T) {
	var q Queue
	q.Schedule(2.5, func() {})
	if q.Now() != 0 {
		t.Fatalf("Now before Run = %v, want 0", q.Now())
	}
	q.Step()
	if q.Now() != 2.5 {
		t.Fatalf("Now after Step = %v, want 2.5", q.Now())
	}
}

func TestQueueAfterIsRelative(t *testing.T) {
	var q Queue
	var at Time
	q.Schedule(10, func() {
		q.After(5, func() { at = q.Now() })
	})
	q.Run()
	if at != 15 {
		t.Fatalf("After(5) from t=10 fired at %v, want 15", at)
	}
}

func TestQueueSchedulePastPanics(t *testing.T) {
	var q Queue
	q.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		q.Schedule(5, func() {})
	})
	q.Run()
}

// TestQueueNaNTimePanics pins the NaN backstop: a NaN fire time panics
// with a typed *TimeError at scheduling instead of entering the heap.
func TestQueueNaNTimePanics(t *testing.T) {
	nan := Time(math.NaN())
	for _, c := range []struct {
		name     string
		schedule func(q *Queue)
	}{
		{"ScheduleCall", func(q *Queue) { q.ScheduleCall(nan, &countHandler{}, 0, nil) }},
		{"AfterCall", func(q *Queue) { q.AfterCall(nan, &countHandler{}, 0, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var q Queue
			q.AdvanceTo(2)
			defer func() {
				te, ok := recover().(*TimeError)
				if !ok {
					t.Fatalf("%s(NaN) did not panic with *TimeError", c.name)
				}
				if !math.IsNaN(float64(te.At)) || te.Now != 2 {
					t.Fatalf("TimeError = {At: %v, Now: %v}, want {NaN, 2}", te.At, te.Now)
				}
				if q.Len() != 0 {
					t.Fatalf("NaN event entered the queue: Len = %d", q.Len())
				}
			}()
			c.schedule(&q)
		})
	}
}

func TestQueueNilFuncPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Error("nil event function did not panic")
		}
	}()
	q.Schedule(1, nil)
}

func TestQueueCancel(t *testing.T) {
	var q Queue
	fired := false
	e := q.Schedule(1, func() { fired = true })
	if !e.Scheduled() {
		t.Fatal("event not marked scheduled")
	}
	if !q.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Scheduled() {
		t.Fatal("cancelled event still marked scheduled")
	}
	if q.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
	q.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestQueueCancelMiddle(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(1, func() { got = append(got, 1) })
	e := q.Schedule(2, func() { got = append(got, 2) })
	q.Schedule(3, func() { got = append(got, 3) })
	q.Cancel(e)
	q.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestQueueCancelNil(t *testing.T) {
	var q Queue
	if q.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		q.Schedule(at, func() { got = append(got, at) })
	}
	n := q.RunUntil(3)
	if n != 3 {
		t.Fatalf("RunUntil fired %d events, want 3 (events at deadline fire)", n)
	}
	if q.Now() != 3 {
		t.Fatalf("Now = %v, want 3", q.Now())
	}
	if q.Len() != 2 {
		t.Fatalf("pending = %d, want 2", q.Len())
	}
}

func TestRunUntilAdvancesToDeadlineWhenIdle(t *testing.T) {
	var q Queue
	q.RunUntil(42)
	if q.Now() != 42 {
		t.Fatalf("Now = %v, want 42", q.Now())
	}
}

func TestPeekTime(t *testing.T) {
	var q Queue
	if q.PeekTime() != Never {
		t.Fatal("PeekTime on empty queue != Never")
	}
	q.Schedule(7, func() {})
	if q.PeekTime() != 7 {
		t.Fatalf("PeekTime = %v, want 7", q.PeekTime())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{Never, "never"},
		{90, "1.500min"},
		{1.5, "1.500s"},
		{2 * Millisecond, "2.000ms"},
		{3 * Microsecond, "3.000us"},
		{4 * Nanosecond, "4.000ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.t), got, c.want)
		}
	}
}

func TestBeforeAfter(t *testing.T) {
	if !Time(1).Before(2) || Time(2).Before(1) || Time(1).Before(1) {
		t.Error("Before misbehaves")
	}
	if !Time(2).After(1) || Time(1).After(2) || Time(1).After(1) {
		t.Error("After misbehaves")
	}
}

// Property: for any batch of events with random times, dispatch order is
// sorted by time and stable for ties.
func TestQueueDispatchOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		var q Queue
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, raw := range times {
			at := Time(raw % 64) // force many ties
			i := i
			q.Schedule(at, func() { fired = append(fired, rec{at, i}) })
		}
		q.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset fires exactly the complement.
func TestQueueCancelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		var q Queue
		n := 1 + rng.Intn(50)
		events := make([]*Event, n)
		firedSet := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = q.Schedule(Time(rng.Intn(10)), func() { firedSet[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				q.Cancel(events[i])
				cancelled[i] = true
			}
		}
		q.Run()
		for i := 0; i < n; i++ {
			if firedSet[i] == cancelled[i] {
				t.Fatalf("trial %d event %d: fired=%v cancelled=%v", trial, i, firedSet[i], cancelled[i])
			}
		}
	}
}

func TestEventAt(t *testing.T) {
	var q Queue
	e := q.Schedule(9, func() {})
	if e.At() != 9 {
		t.Fatalf("At = %v, want 9", e.At())
	}
}

func TestStepOnEmpty(t *testing.T) {
	var q Queue
	if q.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}
