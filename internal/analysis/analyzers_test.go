package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"asmp/internal/analysis"
)

// The corpus harness: each testdata/src/<name> package is loaded under a
// claimed import path (so scoped rules see the path they protect) and
// run through the FULL analyzer suite. Every diagnostic must be claimed
// by a "// want <rule> \"regexp\"" comment on its line, and every want
// must be hit exactly once — so the corpora simultaneously prove that
// rules fire where seeded and stay quiet everywhere else, including
// across rules.

// wantRe matches one expectation inside a comment.
var wantRe = regexp.MustCompile(`// want (\w+) "([^"]+)"`)

type expectation struct {
	file    string // base name
	line    int
	rule    string
	pattern *regexp.Regexp
	hit     bool
}

// loadExpectations scans every .go file in dir for want comments.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, m[2], err)
				}
				wants = append(wants, &expectation{
					file: e.Name(), line: i + 1, rule: m[1], pattern: re,
				})
			}
		}
	}
	return wants
}

// newLoader builds a loader rooted at this module.
func newLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

// runCorpus loads testdata/src/<name> as importPath and runs the whole
// suite over it.
func runCorpus(t *testing.T, name, importPath string) []analysis.Diagnostic {
	t.Helper()
	loader := newLoader(t)
	pkg, err := loader.LoadDirAs(filepath.Join("testdata", "src", name), importPath)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.Run([]*analysis.Package{pkg}, analysis.All())
}

// checkCorpus asserts the diagnostics of a corpus exactly match its want
// comments.
func checkCorpus(t *testing.T, name, importPath string) {
	t.Helper()
	diags := runCorpus(t, name, importPath)
	wants := loadExpectations(t, filepath.Join("testdata", "src", name))

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == filepath.Base(d.Pos.Filename) &&
				w.line == d.Pos.Line && w.rule == d.Rule &&
				w.pattern.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected %s diagnostic matching %q did not fire",
				w.file, w.line, w.rule, w.pattern)
		}
	}
}

func TestNoWallTimeCorpus(t *testing.T) {
	// Claimed path is a CLI package: the rule applies module-wide.
	checkCorpus(t, "nowalltime", "asmp/cmd/lintcorpus")
}

func TestNoRandCorpus(t *testing.T) {
	checkCorpus(t, "norand", "asmp/internal/sim/lintcorpus")
}

func TestNoRandAllowCorpus(t *testing.T) {
	checkCorpus(t, "norandallow", "asmp/internal/sim/lintcorpus2")
}

func TestNoRandExemptsXRand(t *testing.T) {
	// The same banned imports loaded as internal/xrand produce nothing:
	// xrand is the one package allowed to implement randomness.
	diags := runCorpus(t, "norand", "asmp/internal/xrand/lintcorpus")
	for _, d := range diags {
		t.Errorf("unexpected diagnostic under xrand: %s", d)
	}
}

func TestMapOrderCorpus(t *testing.T) {
	checkCorpus(t, "maporder", "asmp/internal/figures/lintcorpus")
}

func TestNoGoroutineCorpus(t *testing.T) {
	checkCorpus(t, "nogoroutine", "asmp/internal/sched/lintcorpus")
}

func TestNoGoroutineFiresInSim(t *testing.T) {
	// internal/sim runs proc bodies as iter.Pull coroutines and has no
	// go statement of its own, so it is not a harness package: the
	// corpus fires there exactly as under sched.
	checkCorpus(t, "nogoroutine", "asmp/internal/sim/lintcorpus3")
}

func TestNoGoroutineExemptsServer(t *testing.T) {
	// internal/server is a harness package (see harnessPackages): its
	// goroutines carry requests, never simulation state, so the same
	// file that fires under sched is clean there — no per-line pragmas.
	checkHarnessExemption(t, "asmp/internal/server/lintcorpus", "server")
}

func TestNoGoroutineExemptsResultcache(t *testing.T) {
	// internal/resultcache is a harness package (see harnessPackages):
	// its counters and GC are concurrent bookkeeping, never simulation
	// state, and every entry it serves is digest-verified first.
	checkHarnessExemption(t, "asmp/internal/resultcache/lintcorpus", "resultcache")
}

// checkHarnessExemption asserts the nogoroutine corpus produces no
// nogoroutine findings under a harness import path — only the stale-
// pragma finding for the suppression the harness scope made redundant.
func checkHarnessExemption(t *testing.T, importPath, label string) {
	t.Helper()
	diags := runCorpus(t, "nogoroutine", importPath)
	stale := 0
	for _, d := range diags {
		if d.Rule == "pragma" && strings.Contains(d.Message, "stale") {
			stale++
			continue
		}
		t.Errorf("unexpected diagnostic under %s: %s", label, d)
	}
	if stale == 0 {
		t.Errorf("expected the corpus pragma to be reported stale under %s (it suppresses nothing there)", label)
	}
}

func TestNoGoroutineFiresInFault(t *testing.T) {
	// internal/fault joined the deterministic scope when its trace
	// generators started feeding run identity (wave/walk/stairs expand
	// into the plan that keys digests and cache entries). It is not a
	// harness package, so the nogoroutine corpus must fire there.
	diags := runCorpus(t, "nogoroutine", "asmp/internal/fault/lintcorpus")
	if len(diags) == 0 {
		t.Fatal("nogoroutine corpus produced no diagnostics under fault: the package is missing from the deterministic scope")
	}
}

func TestNoGoroutineStillFiresInsideDeterministicCore(t *testing.T) {
	// The harness exemption is an allowlist, not a scope retreat: the
	// corpus still fires under core, which sits in the deterministic
	// scope and is NOT a harness package.
	diags := runCorpus(t, "nogoroutine", "asmp/internal/core/lintcorpus")
	if len(diags) == 0 {
		t.Fatal("nogoroutine corpus produced no diagnostics under core: the harness exemption swallowed the rule")
	}
}

func TestJournalErrCorpus(t *testing.T) {
	checkCorpus(t, "journalerr", "asmp/internal/figures/lintcorpus2")
}

func TestRefDisciplineCorpus(t *testing.T) {
	checkCorpus(t, "refdiscipline", "asmp/internal/sched/refcorpus")
}

func TestRefDisciplineExemptsSimtime(t *testing.T) {
	// simtime owns the free list and must traffic in bare pointers: the
	// same file under its import path is clean of refdiscipline findings.
	for _, d := range runCorpus(t, "refdiscipline", "asmp/internal/simtime/refcorpus") {
		if d.Rule == "refdiscipline" {
			t.Errorf("unexpected diagnostic under simtime: %s", d)
		}
	}
}

func TestSinkSeamCorpus(t *testing.T) {
	checkCorpus(t, "sinkseam", "asmp/internal/shard/seamcorpus")
}

func TestSinkSeamExemptsJournal(t *testing.T) {
	// The journal package owns the seam: the same file there produces no
	// sinkseam findings — only the stale-pragma report for the corpus
	// suppression that the exemption made redundant.
	for _, d := range runCorpus(t, "sinkseam", "asmp/internal/journal/seamcorpus") {
		if d.Rule == "pragma" && strings.Contains(d.Message, "stale") {
			continue
		}
		t.Errorf("unexpected diagnostic under journal: %s", d)
	}
}

func TestSinkSeamExemptsResultcache(t *testing.T) {
	// The result cache owns its own seam (atomic temp+fsync+rename
	// publish, .damaged set-aside), and verify-on-read degrades any torn
	// write to a typed refusal — so the same file that fires under shard
	// is clean under resultcache, modulo the now-stale corpus pragma.
	for _, d := range runCorpus(t, "sinkseam", "asmp/internal/resultcache/seamcorpus") {
		if d.Rule == "pragma" && strings.Contains(d.Message, "stale") {
			continue
		}
		t.Errorf("unexpected diagnostic under resultcache: %s", d)
	}
}

func TestTypedErrCorpus(t *testing.T) {
	checkCorpus(t, "typederr", "asmp/internal/shard/errcorpus")
}

func TestPurityCorpus(t *testing.T) {
	checkCorpus(t, "purity", "asmp/internal/workload/purecorpus")
}

func TestTaintCorpus(t *testing.T) {
	checkCorpus(t, "taint", "asmp/cmd/taintcorpus")
}

// TestTaintRegressionPin pins the wrapper hole the interprocedural
// engine closed: a wall-clock read suppressed at its source and
// laundered through two helpers into a digest sink. The PR 3 syntactic
// tier must stay blind to it (that blindness IS the old bug), and the
// full run must flag exactly the sink with the complete witness chain.
func TestTaintRegressionPin(t *testing.T) {
	loader := newLoader(t)
	pkg, err := loader.LoadDirAs(filepath.Join("testdata", "src", "taint"), "asmp/cmd/taintcorpus")
	if err != nil {
		t.Fatal(err)
	}
	if ds := analysis.RunSyntactic([]*analysis.Package{pkg}, analysis.All()); len(ds) != 0 {
		t.Errorf("syntactic tier flagged the laundered clock read; the regression corpus no longer isolates the wrapper hole: %v", ds)
	}
	full := analysis.Run([]*analysis.Package{pkg}, analysis.All())
	if len(full) != 1 {
		t.Fatalf("full run produced %d diagnostics, want exactly the sink finding: %v", len(full), full)
	}
	d := full[0]
	if d.Rule != "nowalltime" {
		t.Errorf("sink finding has rule %q, want nowalltime", d.Rule)
	}
	for _, frag := range []string{"digest.Uint64", "helper2 ← helper1 ← stamp ← time.Now"} {
		if !strings.Contains(d.Message, frag) {
			t.Errorf("sink finding %q does not carry %q", d.Message, frag)
		}
	}
}
