// Deliberate-bug seam for the protocol verification harness.
//
// Property-based testing is only trustworthy if the oracles demonstrably
// catch real protocol bugs. This seam lets a test re-introduce a specific,
// historically plausible defect (disable reply dedup, skip the observation
// quorum, double-count frame hits) without forking the production code, then
// assert that the chaos harness detects it and shrinks the failing plan to a
// minimal counterexample. Production behavior is bit-identical when no bug
// is armed (the default): every hook site reduces to one predicted branch.
//
// The armed bug is process-global and not thread-safe by design — tests that
// arm a bug run the simulation serially (ScopedInjectedBug guards scope).
#ifndef P2PAQP_UTIL_BUG_INJECTION_H_
#define P2PAQP_UTIL_BUG_INJECTION_H_

namespace p2paqp::util {

enum class InjectedBug {
  kNone = 0,
  // The sink counts every reply, including replayed duplicates, as a fresh
  // observation — inflates the effective sample and biases the estimate.
  kDisableReplyDedup,
  // The sink proceeds with however many observations arrived instead of
  // failing the query when delivery falls below the quorum floor.
  kSkipQuorumCheck,
  // The multi-query scheduler credits carried-over frame selections as hits
  // twice, corrupting the frame-accounting ledger.
  kDoubleCountFrameHits,
  // A churn epoch advances its leave scan by the geometric skip alone,
  // without the +1 past the candidate it just visited: a zero skip revisits
  // that id, so the epoch draws about 1/(1 - p_leave) times the Bernoulli
  // (p_leave)-per-id candidates (and never ends at p_leave = 1).
  kChurnSkipWithoutStride,
  // A churn epoch snapshots its rejoin candidates after the leave pass, so a
  // peer that left in this epoch may rejoin in it too.
  kChurnRejoinSameEpoch,
};

// Currently armed bug (kNone in production).
InjectedBug ArmedBug();
void ArmBug(InjectedBug bug);

// True when `bug` is armed; the hook sites call this.
inline bool BugArmed(InjectedBug bug) { return ArmedBug() == bug; }

// Arms a bug for one scope, restoring the previous state on exit.
class ScopedInjectedBug {
 public:
  explicit ScopedInjectedBug(InjectedBug bug) : previous_(ArmedBug()) {
    ArmBug(bug);
  }
  ~ScopedInjectedBug() { ArmBug(previous_); }
  ScopedInjectedBug(const ScopedInjectedBug&) = delete;
  ScopedInjectedBug& operator=(const ScopedInjectedBug&) = delete;

 private:
  InjectedBug previous_;
};

}  // namespace p2paqp::util

#endif  // P2PAQP_UTIL_BUG_INJECTION_H_
