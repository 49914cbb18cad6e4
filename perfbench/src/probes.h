// Probes: timed calls into one layer's public functions, replayed from what
// a traced stream recorded (walk hops, replying peers, the workload's
// walker count and fault plan), each on the network its record came from.
// They give a per-operation cost for layers the event-driven engine runs
// inside its own event loop, where the benchmark cannot place a span.
#ifndef P2PAQP_PERFBENCH_PROBES_H_
#define P2PAQP_PERFBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace p2paqp::perfbench {

// Graph::neighbors decode plus iteration, in ns per decoded node, over the
// nodes the recorded walks stepped onto.
double ProbeNeighborsNs(const std::vector<WalkRecord>& walks);

// RandomWalkSampler::SamplePeersResilient, in ns per hop, from the recorded
// sinks with the workload's walk parameters and phase-I size.
double ProbeWalkNsPerHop(const WorkloadSpec& spec,
                         const std::vector<WalkRecord>& walks, uint64_t seed);

// query::ExecuteLocal, in ns per visit, at the recorded replying peers with
// their queries and the workload's sub-sampling budget.
double ProbeLocalExecNs(const WorkloadSpec& spec,
                        const std::vector<WalkRecord>& walks, uint64_t seed);

// core::CrossValidate over a phase-I-sized set of observations taken at the
// first record's repliers, in us per call.
double ProbeCrossValidateUs(const WorkloadSpec& spec,
                            const std::vector<WalkRecord>& walks,
                            uint64_t seed);

// EventQueue schedule + pop, in ns per event, with the workload's walkers
// as step events and a phase-I reply backlog as closure events.
double ProbeEventNs(const WorkloadSpec& spec, uint64_t seed);

// SimulatedNetwork::SendAlongEdge along the recorded hops, with whatever
// fault plan the network has installed, in ns per send.
double ProbeSendNs(const std::vector<WalkRecord>& walks);

// ChurnModel::Step on a clone of `network`, in ms per epoch, with the
// workload's churn parameters (the library defaults when it has none).
double ProbeChurnStepMs(const net::SimulatedNetwork& network,
                        const WorkloadSpec& spec, uint64_t seed);

}  // namespace p2paqp::perfbench

#endif  // P2PAQP_PERFBENCH_PROBES_H_
