package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// runTiny runs one tiny workload and returns its parsed result line.
func runTiny(t *testing.T, workload, trace string, opt options) jsonResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", trace,
		"--size", "tiny", "--workdir", t.TempDir()}
	if code := run(args, &stdout, &stderr, opt); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\nstderr:\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, stdout.String())
	}
	if t.Failed() || !res.Correct {
		t.Logf("output:\n%s", stdout.String())
	}
	return res
}

// sameMetrics checks that got carries exactly the declared names, each
// with its declared unit.
func sameMetrics(t *testing.T, what string, got map[string]jsonMetric, want map[string]string) {
	t.Helper()
	var missing, extra []string
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			missing = append(missing, name)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("%s: missing metrics %v, undeclared metrics %v", what, missing, extra)
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks the result line: correct, no failures, and exactly the
// declared metrics with their units.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range []string{"sweep-cold", "sweep-warm", "serve-mixed"} {
		for _, tr := range []string{"0", "1"} {
			res := runTiny(t, wl, tr, options{})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", wl, tr, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if tr == "1" {
				want = perLayer
			}
			sameMetrics(t, wl+" trace="+tr, res.Metrics, want)
		}
	}
}

// TestCorruptReferenceCounted proves a grid digest that differs from
// the pinned reference is counted as a failure and raises failed_share.
func TestCorruptReferenceCounted(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ref["tiny/1"]; !ok {
		t.Fatal("reference.json pins no tiny/1 grid digest")
	}
	res := runTiny(t, "sweep-cold", "1", options{reference: map[string]string{"tiny/1": "0123456789abcdef"}})
	if res.Correct || res.Failed == 0 || res.Metrics["bench.failed_share"].Value <= 0 {
		t.Errorf("corrupted reference not counted: correct=%v failed=%d failed_share=%v",
			res.Correct, res.Failed, res.Metrics["bench.failed_share"].Value)
	}
}

// TestWrongServedBodyCounted proves a served figure body that differs
// from the in-process rendering is counted as a failure and raises
// failed_share.
func TestWrongServedBodyCounted(t *testing.T) {
	corrupt := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, "/v1/figure/") {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			w.WriteHeader(rec.Code)
			w.Write(append(rec.Body.Bytes(), '!'))
		})
	}
	res := runTiny(t, "serve-mixed", "1", options{wrapHandler: corrupt})
	if res.Correct || res.Failed == 0 || res.Metrics["bench.failed_share"].Value <= 0 {
		t.Errorf("wrong figure body not counted: correct=%v failed=%d failed_share=%v",
			res.Correct, res.Failed, res.Metrics["bench.failed_share"].Value)
	}
}

// TestBadFlags exits 2 without a result line.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep-cold", "--trace", "2"},
		{"--workload", "sweep-cold", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, options{}); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
