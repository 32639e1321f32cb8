package analysis

import "go/ast"

// NoGoroutine forbids raw goroutines and sync primitives inside the
// deterministic core, outside the harness packages (harnessPackages)
// such as internal/server, whose goroutines carry requests over the
// deterministic core but never simulation state. The simulator is
// single-threaded by construction: every interleaving decision is made
// by the event loop so that a (config, seed) pair replays identically;
// even internal/sim runs its procs as coroutines, not goroutines.
// A goroutine or mutex in sched, workload or digest code reintroduces
// host-scheduler nondeterminism that no seed controls. Harness-level
// parallelism *across* independent cells (core.Experiment) is
// intentional and annotated //asmp:allow goroutine.
var NoGoroutine = &Analyzer{
	Name:      "nogoroutine",
	Doc:       "forbid go statements and sync primitives in deterministic packages (outside the harness packages server, shard and resultcache)",
	Tier:      TierSyntactic,
	Invariant: "the deterministic core is single-threaded: no go statements or sync primitives outside the harness packages",
	Why:       "host-scheduler interleaving is not replayable from a seed; every interleaving decision must come from the event loop",
	Applies:   noGoroutineScope,
	Run:       runNoGoroutine,
}

func runNoGoroutine(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.ReportFix(n.Pos(),
					"drive the work from the sim event loop; cross-cell harness parallelism may be annotated //asmp:allow goroutine",
					"go statement in deterministic package %s: host scheduling is not replayable",
					p.Path)
			case *ast.SelectorExpr:
				if path := pkgPathOf(p.Info, n); path == "sync" || path == "sync/atomic" {
					p.ReportFix(n.Pos(),
						"deterministic code is single-threaded; if this guards harness parallelism, annotate //asmp:allow goroutine",
						"%s.%s in deterministic package %s: sync primitives imply nondeterministic interleaving",
						path, n.Sel.Name, p.Path)
				}
			}
			return true
		})
	}
}
