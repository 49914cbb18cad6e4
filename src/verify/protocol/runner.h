// Executes one ChaosPlan end-to-end and evaluates every oracle.
//
// The runner is a pure function of the plan: world construction, fault /
// churn / adversary installation, query workload, oracle evaluation and the
// replay digest are all derived from plan.seed, so identical plans produce
// identical ChaosRunReports — including bit-identical digests — on every
// machine and under every P2PAQP_THREADS setting (the run itself is serial;
// thread-invariance is asserted by re-running plans across configurations).
#ifndef P2PAQP_VERIFY_PROTOCOL_RUNNER_H_
#define P2PAQP_VERIFY_PROTOCOL_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "verify/protocol/chaos_plan.h"
#include "verify/protocol/invariants.h"

namespace p2paqp::verify {

struct ChaosRunReport {
  ChaosPlan plan;
  // Every oracle violation, from all checkers (empty = plan passed).
  std::vector<std::string> violations;
  // FNV-1a digest of answers, cost and the full event history: two runs of
  // the same plan must produce the same digest (replay invariance).
  uint64_t digest = 0;
  size_t history_events = 0;
  // Reachability of the churn stressor: liveness flips the churn model
  // applied (departures + rejoins), and rebirths of a peer that died
  // holding an unforwarded walker token, with walker traffic still going on
  // after the rebirth. A fixed-seed plan that exists to exercise churn
  // asserts these instead of trusting its digest.
  uint64_t churn_transitions = 0;
  size_t holder_rebirths = 0;
  size_t answers_ok = 0;
  size_t answers_failed = 0;
  std::vector<AnswerRecord> answers;

  bool failed() const { return !violations.empty(); }
};

ChaosRunReport RunChaosPlan(const ChaosPlan& plan);

}  // namespace p2paqp::verify

#endif  // P2PAQP_VERIFY_PROTOCOL_RUNNER_H_
