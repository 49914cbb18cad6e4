#include "sampling/random_walk.h"

#include <cstdint>
#include <utility>

#include "sampling/walker_kernel.h"

namespace p2paqp::sampling {

namespace {

size_t SaturatingAdd(size_t a, size_t b) {
  return a > SIZE_MAX - b ? SIZE_MAX : a + b;
}

size_t SaturatingMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  return a > SIZE_MAX / b ? SIZE_MAX : a * b;
}

}  // namespace

size_t AutoMaxHops(const WalkParams& params, size_t num_selections,
                   size_t walkers) {
  size_t nominal =
      SaturatingAdd(SaturatingMul(params.burn_in, walkers),
                    SaturatingMul(num_selections, params.jump));
  if (params.variant != WalkVariant::kSimple) {
    // Lazy self-loops and Metropolis-Hastings rejections burn hops without
    // moving (~half the steps in expectation): double the room so those
    // variants are not starved relative to the simple walk.
    nominal = SaturatingMul(nominal, 2);
  }
  return SaturatingAdd(SaturatingMul(nominal, 100), 1000);
}

size_t AutoMaxRestarts(size_t num_selections) {
  return SaturatingAdd(SaturatingMul(num_selections, 2), 16);
}

const char* WalkVariantToString(WalkVariant variant) {
  switch (variant) {
    case WalkVariant::kSimple:
      return "simple";
    case WalkVariant::kLazy:
      return "lazy";
    case WalkVariant::kMetropolisHastings:
      return "metropolis_hastings";
  }
  return "unknown";
}

RandomWalk::RandomWalk(net::SimulatedNetwork* network,
                       const WalkParams& params)
    : network_(network), params_(params) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK_GE(params_.jump, 1u) << "jump must be >= 1";
  P2PAQP_CHECK_GE(params_.batch, 1u) << "batch must be >= 1";
}

double RandomWalk::StationaryWeight(graph::NodeId node) const {
  switch (params_.variant) {
    case WalkVariant::kSimple:
    case WalkVariant::kLazy:
      return static_cast<double>(network_->AliveDegree(node));
    case WalkVariant::kMetropolisHastings:
      return 1.0;
  }
  return 0.0;
}

util::Result<WalkOutcome> RandomWalk::CollectResilient(graph::NodeId sink,
                                                       size_t num_selections,
                                                       util::Rng& rng) {
  if (sink >= network_->num_peers() || !network_->IsAlive(sink)) {
    return util::Status::FailedPrecondition("sink peer is not live");
  }
  WalkerKernel kernel(network_, params_, params_.straggler, params_.health,
                      sink, num_selections, /*walkers=*/1,
                      &neighbor_scratch_);
  WalkOutcome outcome;
  outcome.visits.reserve(num_selections);
  WalkerState walker = kernel.Launch(num_selections);
  // The sequential ledger already summed every transmitted hop; the only
  // extra wait is a Walk-Not-Wait fork's budget.
  while (walker.remaining > 0) {
    const WalkerStep step = kernel.Step(walker, rng);
    if (step.selected) {
      outcome.visits.push_back(
          PeerVisit{step.peer, network_->AliveDegree(step.peer)});
    }
    if (step.wait_ms > 0.0) network_->cost().RecordLatency(step.wait_ms);
    if (step.action == WalkerAction::kDone) {
      // Indexed by WalkerEnd.
      static const util::Status kTruncations[] = {
          util::Status::OutOfRange("walk exceeded hop budget"),
          util::Status::Unavailable("walker restart budget exhausted"),
          util::Status::Unavailable("sink departed mid-walk"),
          util::Status::Unavailable(
              "walker stranded: sink has no live neighbors")};
      outcome.truncated = true;
      outcome.truncation = kTruncations[static_cast<size_t>(step.end)];
      break;
    }
  }
  outcome.stats = kernel.stats();
  return outcome;
}

util::Result<std::vector<PeerVisit>> RandomWalk::Collect(
    graph::NodeId sink, size_t num_selections, util::Rng& rng) {
  auto outcome = CollectResilient(sink, num_selections, rng);
  if (!outcome.ok()) return outcome.status();
  if (outcome->truncated) return outcome->truncation;
  return std::move(outcome->visits);
}

}  // namespace p2paqp::sampling
