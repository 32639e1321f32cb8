package digest

import (
	"testing"

	"asmp/internal/trace"
	"asmp/internal/xrand"
)

func TestStringParseRoundTrip(t *testing.T) {
	for _, d := range []Digest{0, 1, 0xdeadbeefcafef00d, ^Digest(0)} {
		s := d.String()
		if len(s) != 16 {
			t.Errorf("digest %v renders %q, want 16 hex chars", uint64(d), s)
		}
		got, err := Parse(s)
		if err != nil || got != d {
			t.Errorf("Parse(%q) = %v, %v; want %v", s, got, err, d)
		}
	}
	if _, err := Parse("not-hex"); err == nil {
		t.Error("Parse accepted garbage")
	}
}

func TestHasherDeterministic(t *testing.T) {
	fold := func() Digest {
		h := New()
		h.Identity("specjbb", "2f-2s/8", "naive", 42)
		h.Event(trace.Event{At: 1.5, Kind: trace.Dispatch, Core: 1, From: -1, Proc: 3, ProcName: "worker"})
		h.Result("txn/s", 1234.5, true, map[string]float64{"b": 2, "a": 1})
		return h.Sum()
	}
	if fold() != fold() {
		t.Fatal("identical folds produced different digests")
	}
}

func TestHasherSensitivity(t *testing.T) {
	base := func(mutate func(h *Hasher)) Digest {
		h := New()
		h.Identity("specjbb", "2f-2s/8", "naive", 42)
		mutate(h)
		return h.Sum()
	}
	ref := base(func(h *Hasher) { h.Event(trace.Event{At: 1, Kind: trace.Dispatch, Core: 0}) })
	variants := []func(h *Hasher){
		func(h *Hasher) { h.Event(trace.Event{At: 2, Kind: trace.Dispatch, Core: 0}) },
		func(h *Hasher) { h.Event(trace.Event{At: 1, Kind: trace.Preempt, Core: 0}) },
		func(h *Hasher) { h.Event(trace.Event{At: 1, Kind: trace.Dispatch, Core: 1}) },
		func(h *Hasher) {}, // missing event
	}
	for i, v := range variants {
		if got := base(v); got == ref {
			t.Errorf("variant %d collides with reference digest", i)
		}
	}
	// Seed changes alone must change the digest even with identical
	// streams — the identity is folded first.
	h1, h2 := New(), New()
	h1.Identity("w", "c", "p", 1)
	h2.Identity("w", "c", "p", 2)
	if h1.Sum() == h2.Sum() {
		t.Error("different seeds produced equal identity digests")
	}
}

func TestStringFoldingIsPrefixFree(t *testing.T) {
	h1, h2 := New(), New()
	h1.String("ab")
	h1.String("c")
	h2.String("a")
	h2.String("bc")
	if h1.Sum() == h2.Sum() {
		t.Error(`"ab"+"c" collides with "a"+"bc" (length prefix missing?)`)
	}
}

func TestEventHashMatchesHasher(t *testing.T) {
	e := trace.Event{At: 3.25, Kind: trace.Steal, Core: 2, From: 0, Proc: 9, ProcName: "gc"}
	h := New()
	h.Event(e)
	if EventHash(e) != uint64(h.Sum()) {
		t.Error("EventHash disagrees with Hasher.Event")
	}
}

func TestTeeFansOut(t *testing.T) {
	buf := trace.New(4)
	h := New()
	tee := trace.Tee(nil, buf, h)
	e := trace.Event{At: 1, Kind: trace.Wake, Core: 0}
	tee.Record(e)
	if buf.Len() != 1 {
		t.Errorf("buffer got %d events, want 1", buf.Len())
	}
	want := New()
	want.Event(e)
	if h.Sum() != want.Sum() {
		t.Error("hasher behind Tee did not fold the event")
	}
	if trace.Tee(nil, nil) != nil {
		t.Error("Tee of nils should be nil")
	}
	if got := trace.Tee(nil, buf); got != trace.Tracer(buf) {
		t.Error("Tee of one tracer should unwrap")
	}
}

// foldBytes is fold64's reference: eight Byte folds, low byte first.
func foldBytes(x, v uint64) uint64 {
	h := NewFrom(Digest(x))
	for i := 0; i < 8; i++ {
		h.Byte(byte(v >> (8 * i)))
	}
	return uint64(h.Sum())
}

// TestFold64MatchesByteFolds pins fold64, including its one-byte,
// two-byte and all-ones shortcuts, to the plain FNV-1a byte stream.
func TestFold64MatchesByteFolds(t *testing.T) {
	vs := []uint64{0, 1, 255, 256, 65535, 65536, 1 << 24, 1 << 56, ^uint64(0) >> 1, ^uint64(0)}
	r := xrand.New(13)
	xs := []uint64{offset64, 0, ^uint64(0)}
	for i := 0; i < 2000; i++ {
		xs = append(xs, r.Uint64())
		// Random values biased toward the fast path's range.
		vs = append(vs, r.Uint64(), r.Uint64()>>(r.Intn(64)), uint64(r.Intn(1<<17)))
	}
	for i, x := range xs {
		for _, v := range []uint64{vs[i%len(vs)], vs[(i*7+3)%len(vs)]} {
			if got, want := fold64(x, v), foldBytes(x, v); got != want {
				t.Fatalf("fold64(%#x, %#x) = %#x, want %#x", x, v, got, want)
			}
		}
		for _, v := range vs[:10] {
			if got, want := fold64(x, v), foldBytes(x, v); got != want {
				t.Fatalf("fold64(%#x, %#x) = %#x, want %#x", x, v, got, want)
			}
		}
	}
	// Every foldOnes entry, under random high accumulator bits.
	for b := uint64(0); b < 256; b++ {
		x := r.Uint64()&^0xff | b
		if got, want := fold64(x, ^uint64(0)), foldBytes(x, ^uint64(0)); got != want {
			t.Fatalf("fold64(%#x, -1) = %#x, want %#x", x, got, want)
		}
	}
}

// TestEventDigestPinned freezes the digest of a fixed event stream that
// crosses every fold64 path (one-byte, two-byte and wider fields,
// From == -1, a negative proc ID), so a fold change that alters the
// byte stream fails here and not only in the goldens.
func TestEventDigestPinned(t *testing.T) {
	h := New()
	for _, e := range []trace.Event{
		{At: 0, Kind: trace.Dispatch, Core: 0, From: -1, Proc: 1, ProcName: "warehouse-0"},
		{At: 1.25, Kind: trace.Steal, Core: 3, From: 1, Proc: 70000, ProcName: "db2-agent-q1-0"},
		{At: 2.5e-3, Kind: trace.Offline, Core: 2, From: -1},
		{At: 7, Kind: trace.Kind(300), Core: 1 << 20, From: 1 << 40, Proc: -5, ProcName: "x"},
		{At: 9.5, Kind: trace.Wake, Core: 1, From: 2, Proc: 4000, ProcName: "httpd-refork-12"},
	} {
		h.Event(e)
	}
	if got, want := h.Sum().String(), "450205c01932efa4"; got != want {
		t.Fatalf("event stream digest = %s, want %s", got, want)
	}
}

// BenchmarkHasherEvent measures one Event fold of a typical scheduler
// event — a dispatch with no source core and an 11-byte proc name —
// through the trace.Tracer interface, as the scheduler calls it.
func BenchmarkHasherEvent(b *testing.B) {
	h := New()
	var tr trace.Tracer = h
	e := trace.Event{At: 1.234567, Kind: trace.Dispatch, Core: 2, From: -1, Proc: 17, ProcName: "warehouse-3"}
	for i := 0; i < b.N; i++ {
		tr.Record(e)
	}
	if h.Sum() == 0 {
		b.Fatal("zero digest")
	}
}
