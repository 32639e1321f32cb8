package main

import (
	"bytes"
	"strings"
	"testing"
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
