// The policy zoo: the scheduling policies drawn from the related-work
// literature rather than the source paper itself, plus the shared
// policy-name plumbing (ParsePolicy, AllPolicies) and the typed
// DutyError that SetDuty raises at runtime.
//
// Three policies live here:
//
//   - PolicyCriticalityAware (arXiv:2009.00915): fork-join workloads
//     are gated by their critical path, and on a dynamically asymmetric
//     machine the critical path is whatever large burst landed on a
//     slow core. The policy keeps a decayed machine-wide mean burst
//     size; a task issuing a burst at or above the mean is *critical*
//     and placed like the aware policy (fastest idle core first), while
//     sub-critical tasks prefer slow idle cores so the fast ones stay
//     free. Forced migration moves only critical tasks.
//
//   - PolicyTypeAware (Intel Thread Director style): each task carries
//     an EWMA of the memory-stall share of its issued bursts and is
//     reclassified continuously. Compute-bound tasks place aware-style
//     on fast cores; memory-stall-bound tasks are parked on slow cores,
//     where a reduced clock costs little because stall time is
//     duty-independent. Forced migration moves only compute-bound
//     tasks.
//
//   - PolicyBigLittle (arXiv:1509.02058): a conventional scheduler
//     given asymmetric capacity weights, CFS-like and conservative. A
//     waking task sticks to its previous core unless that core's
//     capacity-weighted pressure is badly out of line; otherwise it
//     takes the lowest weighted pressure. Balancing equalises weighted
//     pressure only past a 25% imbalance margin, and there is no
//     forced migration of running tasks.
//
// All three are as deterministic as the built-in policies: placement
// and balancing consult only scheduler state that is itself a pure
// function of the issue sequence, and none draws from the RNG.
package sched

import (
	"fmt"
	"math"

	"asmp/internal/cpu"
)

// AllPolicies returns every policy in declaration order.
func AllPolicies() []Policy {
	return []Policy{
		PolicyNaive, PolicyAsymmetryAware, PolicyRankAware,
		PolicyCriticalityAware, PolicyTypeAware, PolicyBigLittle,
	}
}

// PolicyUsage lists the short policy names for flag help text.
const PolicyUsage = "naive|aware|rank|crit|type|little"

// ParsePolicy maps a policy name to its Policy. It accepts both the
// short CLI forms (naive, aware, rank, crit, type, little) and the
// canonical String() forms (asymmetry-aware, rank-aware,
// criticality-aware, type-aware, big-little), so any name printed in a
// report, journal or trace can be pasted straight back into a -policy
// flag. It is the single source of truth for every CLI and the server.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "naive":
		return PolicyNaive, nil
	case "aware", "asymmetry-aware":
		return PolicyAsymmetryAware, nil
	case "rank", "rank-aware":
		return PolicyRankAware, nil
	case "crit", "criticality-aware":
		return PolicyCriticalityAware, nil
	case "type", "type-aware":
		return PolicyTypeAware, nil
	case "little", "big-little", "biglittle":
		return PolicyBigLittle, nil
	}
	return 0, fmt.Errorf("sched: unknown policy %q (want %s or a Policy.String() form)", name, PolicyUsage)
}

// DutyError is the typed panic value SetDuty raises for a duty cycle
// outside the finite interval (0, 1] — including NaN and ±Inf, which a
// plain range check would wave through. core.ExecuteSafe recovers error
// panics into wrapped run errors, so callers can errors.As for it.
type DutyError struct {
	Core int
	Duty float64
}

func (e *DutyError) Error() string {
	return fmt.Sprintf("sched: duty cycle %v for core %d outside finite (0, 1]", e.Duty, e.Core)
}

// finiteDuty reports whether duty is a usable clock duty cycle: finite
// and in (0, 1]. NaN fails every comparison, so the order matters —
// check NaN explicitly rather than relying on range tests.
func finiteDuty(duty float64) bool {
	return !math.IsNaN(duty) && !math.IsInf(duty, 0) && duty > 0 && duty <= 1
}

// speedSensitive reports whether the policy reacts to a mid-run core
// speed change (SetDuty re-rank): every policy except the deliberately
// speed-blind naive one.
func (p Policy) speedSensitive() bool { return p != PolicyNaive }

// forcedMigration reports whether the policy preemptively migrates a
// running task from a slower core to an idle faster one. The
// conservative big.LITTLE policy never does; the naive policy cannot.
func (p Policy) forcedMigration() bool {
	switch p {
	case PolicyAsymmetryAware, PolicyRankAware, PolicyCriticalityAware, PolicyTypeAware:
		return true
	}
	return false
}

// balancesByLoadAvg reports whether the policy's periodic pass is
// balanceNaive, the only reader of coreState.loadAvg: the naive policy,
// and any value outside the zoo, which balanceTick also sends there.
func (p Policy) balancesByLoadAvg() bool {
	switch p {
	case PolicyAsymmetryAware, PolicyRankAware, PolicyCriticalityAware, PolicyTypeAware, PolicyBigLittle:
		return false
	}
	return true
}

// classifies reports whether the policy consumes per-burst
// classification state (observeBurst).
func (p Policy) classifies() bool {
	return p == PolicyCriticalityAware || p == PolicyTypeAware
}

// Classification tuning. burstMeanAlpha is the EWMA weight of the
// machine-wide mean burst size (criticality threshold); memShareAlpha
// is the per-task EWMA weight of the memory-stall share; memBoundShare
// is the share above which a task classifies as memory-stall-bound.
const (
	burstMeanAlpha = 1.0 / 16
	memShareAlpha  = 0.5
	memBoundShare  = 0.5
)

// observeBurst folds one issued burst into the classification state:
// the task's burst size and memory-stall share, the machine-wide mean
// burst, and the task's compute/memory class. Called only from Compute,
// so the state is a pure function of the issue sequence.
func (s *Scheduler) observeBurst(t *task, cycles, memSeconds float64) {
	t.burstSize = cycles
	if s.burstMean == 0 {
		s.burstMean = cycles
	} else {
		s.burstMean += burstMeanAlpha * (cycles - s.burstMean)
	}
	// Express the burst's compute part in seconds at the full clock so
	// the share compares like with like; stall time is duty-independent.
	share := 0.0
	if total := memSeconds + cycles/cpu.BaseHz; total > 0 {
		share = memSeconds / total
	}
	if !t.classified {
		t.memShare = share
		t.classified = true
		t.memBound = share > memBoundShare
		return
	}
	t.memShare += memShareAlpha * (share - t.memShare)
	memBound := t.memShare > memBoundShare
	if memBound != t.memBound {
		t.memBound = memBound
		s.stats.Reclassifications++
	}
}

// critical reports whether the task's latest burst is on the critical
// path by the decayed-mean heuristic.
func (s *Scheduler) critical(t *task) bool { return t.burstSize >= s.burstMean }

// worthPulling reports whether forced migration may move the running
// task t to a faster idle core under the active policy.
func (s *Scheduler) worthPulling(t *task) bool {
	switch s.opt.Policy {
	case PolicyCriticalityAware:
		return s.critical(t)
	case PolicyTypeAware:
		return !t.memBound
	}
	return true
}

// chooseCoreCrit places critical tasks like the aware policy (fastest
// idle core first) and steers sub-critical tasks to slow idle cores so
// the fast ones stay free for critical work; with no idle core both
// fall back to minimum speed-normalised pressure.
func (s *Scheduler) chooseCoreCrit(t *task) int {
	if s.critical(t) {
		best := s.fastestIdle(t)
		if best >= 0 {
			if s.cores[best].core.Duty == s.machine.MaxDuty() {
				s.stats.CriticalPlacements++
			}
			return best
		}
		return s.minPressure(t)
	}
	if best := s.slowestIdle(t); best >= 0 {
		return best
	}
	return s.minPressure(t)
}

// chooseCoreType parks memory-stall-bound tasks on slow cores (slowest
// idle first; with none idle, minimum queue length with a slower-core
// tie-break) and places compute-bound tasks aware-style.
func (s *Scheduler) chooseCoreType(t *task) int {
	if t.classified && t.memBound {
		best := s.slowestIdle(t)
		if best < 0 {
			best = s.minQueueSlowTie(t)
		}
		if best >= 0 && s.cores[best].core.Duty < s.machine.MaxDuty() {
			s.stats.ParkedPlacements++
		}
		return best
	}
	return s.chooseCoreAware(t)
}

// bigLittleStickyMargin is the wake-affinity margin: a waking task
// stays on its previous core while that core's capacity-weighted
// pressure is within this factor of the best available — CFS-style
// conservatism that trades some placement quality for cache warmth.
const bigLittleStickyMargin = 1.25

// chooseCoreBigLittle is CFS-like weighted fair placement: pressure is
// (runnable+1)/duty, the previous core wins while within the sticky
// margin, otherwise the minimum-pressure core (first-wins tie-break in
// core order).
func (s *Scheduler) chooseCoreBigLittle(t *task) int {
	best, bestP := -1, math.Inf(1)
	for i, c := range s.cores {
		if !t.allowed(i) || c.offline {
			continue
		}
		p := float64(c.runnable()+1) / c.core.Duty
		if p < bestP {
			best, bestP = i, p
		}
	}
	if best < 0 {
		return -1
	}
	if last := t.lastCore; last >= 0 && last != best && t.allowed(last) && !s.cores[last].offline {
		lastP := float64(s.cores[last].runnable()+1) / s.cores[last].core.Duty
		if lastP <= bestP*bigLittleStickyMargin {
			return last
		}
	}
	return best
}

// balanceBigLittle equalises capacity-weighted queue pressure with a
// conservative margin: a task moves from the highest-pressure core to
// the lowest only when the move strictly reduces the maximum and the
// imbalance exceeds the sticky margin — a speed-weighted CFS
// load-balancer rather than the aware policy's greedy drain.
func (s *Scheduler) balanceBigLittle() {
	for iter := 0; iter < 64; iter++ {
		var lo, hi *coreState
		var loP, hiP float64
		for _, c := range s.cores {
			if c.offline {
				continue
			}
			p := float64(c.runnable()) / c.core.Duty
			if lo == nil || p < loP {
				lo, loP = c, p
			}
			if hi == nil || p > hiP {
				hi, hiP = c, p
			}
		}
		if lo == nil || hi == lo || len(hi.runq) == 0 {
			return
		}
		after := float64(lo.runnable()+1) / lo.core.Duty
		if after >= hiP || hiP < after*bigLittleStickyMargin {
			return
		}
		t := s.takeStealable(hi, lo.core.ID)
		if t == nil {
			return
		}
		s.stats.Steals++
		s.enqueue(lo, t)
	}
}

// fastestIdle returns the fastest idle online core allowed for t, or
// -1 (ties break toward the lower core ID via byDuty's stable order).
func (s *Scheduler) fastestIdle(t *task) int {
	for _, c := range s.byDuty {
		if id := c.core.ID; t.allowed(id) && !c.offline && c.idle() {
			return id
		}
	}
	return -1
}

// slowestIdle returns the slowest idle online core allowed for t, or
// -1 (ties break toward the higher core ID: byDuty scanned backwards).
func (s *Scheduler) slowestIdle(t *task) int {
	for i := len(s.byDuty) - 1; i >= 0; i-- {
		c := s.byDuty[i]
		if id := c.core.ID; t.allowed(id) && !c.offline && c.idle() {
			return id
		}
	}
	return -1
}

// minPressure returns the allowed online core with the lowest
// speed-normalised queue pressure — the aware policy's no-idle-core
// fallback, shared by the criticality policy.
func (s *Scheduler) minPressure(t *task) int {
	best, bestScore := -1, math.Inf(1)
	for i, c := range s.cores {
		if !t.allowed(i) || c.offline {
			continue
		}
		score := float64(c.runnable()+1) / c.core.Rate()
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// minQueueSlowTie returns the allowed online core with the fewest
// runnable tasks, ties broken toward the *slower* core — where a
// memory-stall-bound task costs the machine the least.
func (s *Scheduler) minQueueSlowTie(t *task) int {
	best, bestLoad := -1, math.MaxInt
	for i, c := range s.cores {
		if !t.allowed(i) || c.offline {
			continue
		}
		load := c.runnable()
		if load < bestLoad ||
			(load == bestLoad && best >= 0 && c.core.Duty < s.cores[best].core.Duty) {
			best, bestLoad = i, load
		}
	}
	return best
}
