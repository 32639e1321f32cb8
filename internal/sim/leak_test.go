package sim

import (
	"runtime"
	"testing"
	"time"

	"asmp/internal/simtime"
)

// TestCloseReleasesProcCoroutines: Close on an env whose procs are
// parked, sleeping and blocked on a mutex unwinds every proc body, so
// none of their coroutines (each one a goroutine while it exists)
// outlives the env.
func TestCloseReleasesProcCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv(1)
	var mu Mutex
	e.Go("holder", func(p *Proc) {
		mu.Lock(p)
		p.Block()
	})
	for i := 0; i < 4; i++ {
		e.Go("parked", func(p *Proc) { p.Block() })
		e.Go("sleeper", func(p *Proc) { p.Sleep(simtime.Minute) })
		e.Go("waiter", func(p *Proc) { mu.Lock(p) })
	}
	e.RunUntil(simtime.Second)
	if e.NumLive() != 13 {
		t.Fatalf("live procs = %d, want 13 parked, sleeping or blocked", e.NumLive())
	}
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("goroutines = %d with 13 suspended procs, want > baseline %d", n, base)
	}
	e.Close()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Close, want <= baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
