package fault

import (
	"errors"
	"math"
	"strings"
	"testing"

	"asmp/internal/cpu"
	"asmp/internal/simtime"
)

// TestParseRejectsNonFiniteDuty is the parse-layer regression for the
// NaN-duty bug: strconv.ParseFloat accepts "NaN" and "Inf", and the
// old duty <= 0 || duty > 1 range check is false on both sides for
// NaN, so -fault throttle@1s:0:NaN used to parse, validate and poison
// rate accounting. Parse must refuse non-finite duties with a typed
// *DutyError.
func TestParseRejectsNonFiniteDuty(t *testing.T) {
	for _, text := range []string{
		"throttle@1s:0:NaN",
		"throttle@1s:0:nan",
		"throttle@1s:0:+Inf",
		"throttle@1s:0:-Inf",
		"throttle@1s:0:Infinity",
		"wave@1s:500ms:0:NaN:3",
		"stairs@1s:500ms:0:Inf:3",
	} {
		_, err := Parse(text)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want *DutyError", text)
			continue
		}
		var de *DutyError
		if !errors.As(err, &de) {
			t.Errorf("Parse(%q) = %v, want *DutyError", text, err)
		}
	}
}

// TestValidateRejectsNonFiniteDuty is the validate-layer regression:
// an Event built directly (bypassing Parse) with a non-finite duty
// must be refused by Plan.Validate with a typed *DutyError.
func TestValidateRejectsNonFiniteDuty(t *testing.T) {
	for _, duty := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := &Plan{Events: []Event{ThrottleAt(simtime.Second, 0, duty)}}
		err := p.Validate(4)
		if err == nil {
			t.Errorf("Validate(duty=%v) succeeded, want *DutyError", duty)
			continue
		}
		var de *DutyError
		if !errors.As(err, &de) {
			t.Errorf("Validate(duty=%v) = %v, want *DutyError", duty, err)
		}
	}
}

// TestParseRejectsNonFiniteTimes is the parse-layer regression for
// non-finite fault times and durations. strconv.ParseFloat accepts NaN
// and Inf, and NaN compares false on both sides of a plain v < 0 or
// Dur <= 0 check, so each of these plans could otherwise parse and
// validate, then hang or poison the run.
func TestParseRejectsNonFiniteTimes(t *testing.T) {
	for _, text := range []string{
		"throttle@NaNs:0:0.5",
		"stall@1s:+Infs",
		"offline@NaNs:0",
		"stall@NaNs:10ms",
		"stall@1s:NaNms",
		"restore@-Infs:0",
		"wave@NaNs:500ms:0:0.5:3",
		"walk@1s:Infms:0:7:3",
	} {
		if p, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", text, p)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("Parse(%q) = %v, want a non-finite duration error", text, err)
		}
	}
}

// TestValidateRejectsNonFiniteTimes is the validate-layer regression:
// events built directly (bypassing Parse) with a NaN or infinite time
// or stall duration must be refused by Plan.Validate.
func TestValidateRejectsNonFiniteTimes(t *testing.T) {
	nan, inf := simtime.Time(math.NaN()), simtime.Time(math.Inf(1))
	for _, e := range []Event{
		ThrottleAt(nan, 0, 0.5),
		OfflineAt(nan, 0),
		RestoreAt(inf, 0),
		StallAt(nan, 10*simtime.Millisecond),
		StallAt(simtime.Second, nan),
		StallAt(simtime.Second, inf),
	} {
		p := &Plan{Events: []Event{e}}
		if err := p.Validate(4); err == nil {
			t.Errorf("Validate(%v) succeeded, want an error", e)
		}
	}
}

func TestWaveExpansion(t *testing.T) {
	p, err := Parse("wave@1s:500ms:2:0.25:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 6 {
		t.Fatalf("wave expanded to %d events, want 6 (throttle+restore per cycle)", len(p.Events))
	}
	if err := p.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// First cycle: throttle at 1s to 0.25, restore at the half-period.
	e0, e1 := p.Events[0], p.Events[1]
	if e0.Kind != Throttle || e0.At != simtime.Second || e0.Core != 2 || e0.Duty != 0.25 {
		t.Errorf("event 0 = %v", e0)
	}
	if e1.Kind != Restore || e1.At != simtime.Second+250*simtime.Millisecond {
		t.Errorf("event 1 = %v", e1)
	}
	// Last cycle starts at 1s + 2×500ms.
	if p.Events[4].At != 2*simtime.Second {
		t.Errorf("last throttle at %v, want 2s", p.Events[4].At)
	}
}

func TestRandomWalkDeterminism(t *testing.T) {
	a, err := Parse("walk@1s:250ms:0:42:10")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Parse("walk@1s:250ms:0:42:10")
	if a.String() != b.String() {
		t.Fatalf("same seed, different walks:\n%s\n%s", a, b)
	}
	c, _ := Parse("walk@1s:250ms:0:43:10")
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical walks")
	}
	if len(a.Events) != 11 {
		t.Fatalf("walk expanded to %d events, want 10 throttles + 1 restore", len(a.Events))
	}
	if last := a.Events[10]; last.Kind != Restore || last.At != 3500*simtime.Millisecond {
		t.Errorf("final event = %v, want restore at 3.5s", last)
	}
	// Every throttle duty is one of the hardware steps.
	steps := map[float64]bool{}
	for _, d := range cpu.DutySteps {
		steps[d] = true
	}
	for _, e := range a.Events[:10] {
		if e.Kind != Throttle || !steps[e.Duty] {
			t.Errorf("walk event %v is not a hardware duty step", e)
		}
	}
	if err := a.Validate(1); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestStairsExpansion(t *testing.T) {
	p, err := Parse("stairs@1s:500ms:0:0.25:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 {
		t.Fatalf("stairs expanded to %d events, want 3", len(p.Events))
	}
	want := []float64{0.75, 0.5, 0.25}
	for i, e := range p.Events {
		if e.Kind != Throttle || math.Abs(e.Duty-want[i]) > 1e-12 {
			t.Errorf("stair %d = %v, want duty %g", i, e, want[i])
		}
		if i > 0 && p.Events[i].Duty >= p.Events[i-1].Duty {
			t.Errorf("stairs not monotone decreasing at %d", i)
		}
	}
	if err := p.Validate(1); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestTraceRoundTrip: a parsed trace renders as plain events whose
// string form parses back to the identical plan — the property that
// gives every distinct trace a distinct run identity.
func TestTraceRoundTrip(t *testing.T) {
	p, err := Parse("wave@1s:500ms:0:0.125:2,walk@2s:250ms:1:7:5,stairs@3s:1s:2:0.5:2")
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if strings.Contains(s, "wave@") || strings.Contains(s, "walk@") || strings.Contains(s, "stairs@") {
		t.Fatalf("String() kept generator syntax: %s", s)
	}
	q, err := Parse(s)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if q.String() != s {
		t.Fatalf("round-trip changed the plan:\n%s\n%s", s, q.String())
	}
}

func TestTraceArgErrors(t *testing.T) {
	for _, text := range []string{
		"wave@1s:500ms:0:0.25",          // missing count
		"wave@1s:500ms:0:0.25:0",        // zero count
		"wave@1s:500ms:0:0.25:99999999", // absurd count
		"wave@1s:0s:0:0.25:3",           // zero step
		"walk@1s:250ms:0:x:3",           // bad seed
		"stairs@1s:500ms:0:1.5:3",       // duty out of range
		"stairs@1s:500ms:0:0:3",         // duty zero
		"blip@1s:500ms:0:0.5:3",         // unknown kind
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}
