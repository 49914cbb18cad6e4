// Churn: peers departing and (re)joining between queries.
//
// Unstructured overlays explicitly tolerate nodes leaving without notice
// (Sec. 1); the walker must route around departed peers. The model keeps the
// underlying graph fixed and toggles liveness, mirroring short-lived Gnutella
// sessions where a peer's connections simply go dark until it returns.
//
// The contract of an epoch is its law, not its RNG stream: every live,
// unpinned peer departs with probability leave_probability and every peer
// down at the start of the epoch (unpinned) returns with probability
// rejoin_probability, all independently, and no peer flips twice in one
// epoch. An epoch costs O(departed + changed peers), not O(peers): leave
// candidates are drawn with geometric skips over the id range and rejoin
// draws visit SimulatedNetwork::departed() only.
#ifndef P2PAQP_NET_CHURN_H_
#define P2PAQP_NET_CHURN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/event_sim.h"
#include "net/network.h"
#include "util/rng.h"

namespace p2paqp::net {

struct ChurnParams {
  // Per-step probability that a live peer departs / a departed peer returns.
  double leave_probability = 0.02;
  double rejoin_probability = 0.2;
  // Peers never taken down (e.g., the query sink).
  std::vector<graph::NodeId> pinned;
};

// Running totals over every epoch a model has stepped.
struct ChurnCounters {
  uint64_t epochs = 0;
  // Ids the leave scan landed on (Bernoulli(leave_probability) per id), and
  // those of them that were live and unpinned and so departed.
  uint64_t leave_candidates = 0;
  uint64_t departures = 0;
  // Unpinned peers down at an epoch's start (one rejoin draw each), and
  // those of them that returned.
  uint64_t rejoin_draws = 0;
  uint64_t rejoins = 0;
};

class ChurnModel {
 public:
  ChurnModel(ChurnParams params, uint64_t seed)
      : params_(std::move(params)), rng_(seed) {}

  // One churn epoch (see the law above). Returns the number of state
  // changes applied. Allocation-free after the first epoch with a rejoin
  // pass, which reserves the rejoin snapshot for every peer.
  size_t Step(SimulatedNetwork& network);

  // Mid-query churn: schedules a self-repeating epoch every `interval_ms`
  // of simulated time, so peers depart *while* a query executes on the
  // event clock. Stops (and schedules nothing further) as soon as
  // `keep_going` returns false — typically "the query still has in-flight
  // work". `this` and `network` must outlive the event queue run.
  void RunOnEventQueue(EventQueue& events, SimulatedNetwork* network,
                       double interval_ms, std::function<bool()> keep_going);

  const ChurnCounters& counters() const { return counters_; }

 private:
  bool IsPinned(graph::NodeId id) const;

  ChurnParams params_;
  util::Rng rng_;
  ChurnCounters counters_;
  // The epoch's rejoin candidates: departed() as it stood before the leave
  // pass. Kept across epochs so a warm drain does not allocate.
  std::vector<graph::NodeId> rejoin_candidates_;
};

}  // namespace p2paqp::net

#endif  // P2PAQP_NET_CHURN_H_
