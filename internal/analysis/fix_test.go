package analysis_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asmp/internal/analysis"
)

// fixtureMain is a tiny standalone module with every class of fixable
// violation: an fmt.Errorf that erases the error chain, a sentinel
// comparison, a fully stale pragma, and a partially stale pragma whose
// live rule must survive the trim.
const fixtureMain = `package main

import (
	"errors"
	"fmt"
	"time"
)

var errStop = errors.New("stop")

//asmp:allow norand this pragma is fully stale: nothing below draws randomness
func wrap(err error) error {
	return fmt.Errorf("run failed: %v", err)
}

func isStop(err error) bool {
	return err == errStop
}

func stamp() int64 {
	//asmp:allow walltime,maporder progress timing; the second rule is stale
	return time.Now().UnixNano()
}

func main() {
	fmt.Println(wrap(errStop), isStop(errStop), stamp())
}
`

// writeFixture materialises the fixable module in a temp dir and
// returns the dir and main.go path.
func writeFixture(t *testing.T) (dir, mainGo string) {
	t.Helper()
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mainGo = filepath.Join(dir, "main.go")
	if err := os.WriteFile(mainGo, []byte(fixtureMain), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, mainGo
}

// lintAndFix loads dir fresh (proving the tree still type-checks),
// runs the full suite and returns the fix output.
func lintAndFix(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("fixture no longer type-checks: %v", err)
	}
	fixed, err := analysis.ApplyFixes(loader.Fset, analysis.Run(pkgs, analysis.All()))
	if err != nil {
		t.Fatal(err)
	}
	return fixed
}

// TestFixIdempotentAndBuilds drives the -fix pipeline twice over a
// fixture module: the first pass must rewrite main.go into a tree that
// still type-checks, and the second pass must be a byte-exact no-op.
func TestFixIdempotentAndBuilds(t *testing.T) {
	dir, mainGo := writeFixture(t)

	fixed := lintAndFix(t, dir)
	content, ok := fixed[mainGo]
	if !ok || len(fixed) != 1 {
		t.Fatalf("first pass fixed %d files (%v), want exactly main.go", len(fixed), keys(fixed))
	}
	src := string(content)
	for _, frag := range []string{
		`fmt.Errorf("run failed: %w", err)`,
		"errors.Is(err, errStop)",
		"//asmp:allow walltime progress timing; the second rule is stale",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("fixed source is missing %q", frag)
		}
	}
	for _, gone := range []string{"norand", "maporder", "%v"} {
		if strings.Contains(src, gone) {
			t.Errorf("fixed source still contains %q", gone)
		}
	}
	if err := os.WriteFile(mainGo, content, 0o644); err != nil {
		t.Fatal(err)
	}

	// Second pass: the fixed tree loads (type-checks) and yields no
	// further edits — idempotency, byte for byte.
	if again := lintAndFix(t, dir); len(again) != 0 {
		t.Fatalf("second fix pass rewrote %v: -fix is not idempotent", keys(again))
	}
	after, err := os.ReadFile(mainGo)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, content) {
		t.Error("fixed file changed between passes: output is not byte-stable")
	}
}

// TestFixDriftClean is the CI drift gate run in-process: the committed
// tree carries zero pending autofixes, so `asmp-lint -fix` is a no-op
// and generated fixes can never drift from what is checked in.
func TestFixDriftClean(t *testing.T) {
	loader := newLoader(t)
	pkgs, err := loader.Load(filepath.Join(loader.Root, "..."))
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := analysis.ApplyFixes(loader.Fset, analysis.Run(pkgs, analysis.All()))
	if err != nil {
		t.Fatal(err)
	}
	for path := range fixed {
		t.Errorf("tree has a pending autofix in %s: run make lint-fix and commit", path)
	}
}

// TestStalePragmaRemovalEdits asserts the stale-pragma diagnostic
// carries a removal edit that actually deletes the suppression: the
// nogoroutine corpus under a harness path reports its pragma stale, and
// applying the fix yields a file with no //asmp:allow left.
func TestStalePragmaRemovalEdits(t *testing.T) {
	loader := newLoader(t)
	dir := filepath.Join("testdata", "src", "nogoroutine")
	pkg, err := loader.LoadDirAs(dir, "asmp/internal/server/lintcorpus9")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run([]*analysis.Package{pkg}, analysis.All())
	fixed, err := analysis.ApplyFixes(loader.Fset, diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 1 {
		t.Fatalf("stale-pragma fix touched %d files, want 1: %v", len(fixed), keys(fixed))
	}
	for path, content := range fixed {
		if strings.Contains(string(content), "asmp:allow") {
			t.Errorf("%s still contains an //asmp:allow after the stale-pragma fix", path)
		}
	}
}

// TestDiffPreview pins the -diff rendering contract: header lines name
// the file, removed lines carry '-', added lines '+'.
func TestDiffPreview(t *testing.T) {
	oldSrc := []byte("a\nb\nc\n")
	newSrc := []byte("a\nB\nc\n")
	d := analysis.Diff("x.go", oldSrc, newSrc)
	for _, frag := range []string{"--- x.go", "+++ x.go (fixed)", "\n-b", "\n+B"} {
		if !strings.Contains(d, frag) {
			t.Errorf("diff output %q is missing %q", d, frag)
		}
	}
	if analysis.Diff("x.go", oldSrc, oldSrc) != "" {
		t.Error("diff of identical content is not empty")
	}
}

func keys(m map[string][]byte) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
