package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"asmp/internal/cpu"
	"asmp/internal/fault"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/trace"
	"asmp/internal/workload"
)

// runCmd invokes the CLI entry point with captured streams.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"unknown flag", []string{"-frobnicate"}, "flag provided but not defined"},
		{"positional arg", []string{"extra"}, "unexpected argument"},
		{"unknown workload", []string{"-workload", "nope"}, "unknown workload"},
		{"malformed config", []string{"-config", "banana"}, "cpu:"},
		{"oversized config", []string{"-config", "999f-0s"}, "at most"},
		{"unknown policy", []string{"-policy", "psychic"}, "unknown policy"},
		{"zero buffer", []string{"-buffer", "0"}, "-buffer"},
		{"malformed fault plan", []string{"-fault", "offline@1s"}, "fault"},
		{"fault plan core out of range", []string{"-config", "4f-0s", "-fault", "offline@1s:9"}, "out of range"},
		{"bad timeout", []string{"-timeout", "soon"}, "-timeout"},
		{"NaN throttle time", []string{"-fault", "throttle@NaNs:0:0.5"}, "non-finite"},
		{"infinite stall", []string{"-fault", "stall@1s:+Infs"}, "non-finite"},
		{"NaN offline time", []string{"-fault", "offline@NaNs:0"}, "non-finite"},
		{"NaN stall time", []string{"-fault", "stall@NaNs:10ms"}, "non-finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := runCmd(tc.args...)
			if code == 0 {
				t.Fatalf("args %v: exit 0, want non-zero", tc.args)
			}
			if !strings.Contains(errOut, tc.want) {
				t.Fatalf("args %v: stderr %q does not contain %q", tc.args, errOut, tc.want)
			}
		})
	}
}

// TestTracesFaultedRun exercises the happy path with a fault plan: the
// trace must report the offline/online activity and still exit zero.
func TestTracesFaultedRun(t *testing.T) {
	code, out, errOut := runCmd(
		"-workload", "specjbb", "-config", "4f-0s",
		"-fault", "offline@1.5s:0,online@3.5s:0", "-timeout", "2min")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"scheduler activity:", "fault activity: 1 offlines, 1 onlines", "per-core dispatch timeline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWatchdogTripReportsError: a timeout shorter than the workload's
// own duration trips the watchdog, which must surface as a one-line
// error and a non-zero exit — not a panic or a hang.
func TestWatchdogTripReportsError(t *testing.T) {
	code, _, errOut := runCmd("-workload", "specjbb", "-config", "4f-0s", "-timeout", "1s")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "watchdog") {
		t.Fatalf("stderr %q does not mention the watchdog", errOut)
	}
}

// TestCancelledTracePrintsPartialTrace: an interrupted run must still
// print whatever the trace buffer captured, and exit 130.
func TestCancelledTracePrintsPartialTrace(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	var out, errb bytes.Buffer
	code := runWith([]string{"-workload", "specjbb", "-config", "2f-2s/8"}, &out, &errb, cancel)
	if code != exitCancelled {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitCancelled, errb.String())
	}
	for _, want := range []string{"run interrupted", "partial trace below", "per-core dispatch timeline"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTracePrintsDigest: a successful traced run reports the run digest.
func TestTracePrintsDigest(t *testing.T) {
	code, out, errOut := runCmd("-workload", "specjbb", "-config", "4f-0s")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "run digest: ") || strings.Contains(out, "run digest: 0000000000000000") {
		t.Errorf("digest missing or zero:\n%s", out)
	}
}

// TestFastIdleSlowBusyPinned freezes the fast-idle-while-slow-queued
// seconds that asmp-trace reports. No run digest covers this statistic,
// so a change to the scheduler's invariant bookkeeping could move it
// silently; these bit patterns were captured from the original pairwise
// invariant loop at seed 1 on 2f-2s/8.
func TestFastIdleSlowBusyPinned(t *testing.T) {
	const wave = "wave@1s:500ms:0:0.125:4"
	cases := []struct {
		workload, policy, plan string
		bits                   uint64
	}{
		{"specjbb", "naive", "", 0},
		{"specjbb", "naive", wave, 0},
		{"apache", "naive", "", 0x3fe33bd850004d52},
		{"apache", "naive", wave, 0x3feb505ee664906c},
		{"zeus", "little", wave, 0x3feabe6ababda1c6},
		{"multiprog", "naive", wave, 0x3fcab69695172460},
		{"omp-ammp", "naive", wave, 0x3fdaa91b358a64d0},
		{"omp-equake", "naive", "", 0x3ff2f8af8af8bef5},
		{"specjappserver", "naive", wave, 0x3fb9e511c35b33c0},
		{"tpch", "rank", "", 0x3ff123ce2ae7adb6},
	}
	for _, tc := range cases {
		w, err := workload.New(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := sched.ParsePolicy(tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		var plan *fault.Plan
		if tc.plan != "" {
			if plan, err = fault.Parse(tc.plan); err != nil {
				t.Fatal(err)
			}
		}
		_, st, err := tracedRun(w, cpu.MustParseConfig("2f-2s/8"), pol, 1, plan, sim.Limits{}, trace.New(16), nil)
		if err != nil {
			t.Fatalf("%s %s %q: %v", tc.workload, tc.policy, tc.plan, err)
		}
		if got := math.Float64bits(st.FastIdleSlowBusy); got != tc.bits {
			t.Errorf("%s %s %q: FastIdleSlowBusy = %v (%#x), want %v (%#x)",
				tc.workload, tc.policy, tc.plan, st.FastIdleSlowBusy, got, math.Float64frombits(tc.bits), tc.bits)
		}
	}
}

// TestNearZeroDutyTerminates pins the decision to accept tiny but
// finite duties: throttling a core to the smallest positive float64
// leaves it effectively stopped, and the run still ends under the
// watchdog with every event at a finite time and the other cores'
// throughput reported.
func TestNearZeroDutyTerminates(t *testing.T) {
	const plan = "throttle@1s:0:5e-324"
	code, out, errOut := runCmd("-fault", plan, "-timeout", "30s")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "throughput (txn/s) = 3059") {
		t.Errorf("output does not report 3059 txn/s:\n%s", out)
	}

	w, err := workload.New("specjbb")
	if err != nil {
		t.Fatal(err)
	}
	p, err := fault.Parse(plan)
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.New(1 << 18)
	_, _, err = tracedRun(w, cpu.MustParseConfig("2f-2s/8"), sched.PolicyNaive, 1, p,
		sim.Limits{MaxVirtualTime: 30 * simtime.Second}, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Total() != buf.Len() {
		t.Fatalf("buffer evicted %d events; raise its capacity", buf.Total()-buf.Len())
	}
	for _, e := range buf.Events() {
		if at := float64(e.At); math.IsNaN(at) || math.IsInf(at, 0) {
			t.Fatalf("event at a non-finite time: %v", e)
		}
	}
}
