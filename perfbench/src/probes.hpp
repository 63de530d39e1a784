// Micro-probes: wall time of single public calls of one layer each, on the
// workload's own message sizes. Each probe is the median of several timed
// batches, a batch lasting about a millisecond.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "workloads.hpp"

namespace dgiwarp::telemetry {
class Registry;
}

namespace perfbench {

/// crc32, DDP build/parse, MPA frame/deframe, validity map, SIP codec and
/// the Simulation::after+step pair at depth 1 and at `deep_depth` (the
/// workload's measured peak pending(); the deep probe reads 0 when that is
/// 0). Keys are the per-layer metric names.
std::map<std::string, double> run_layer_probes(const ProbeSizes& sizes,
                                               std::size_t deep_depth);

/// ns per string-keyed Registry::counter() lookup of keys `reg` holds.
double counter_lookup_ns(dgiwarp::telemetry::Registry& reg);

}  // namespace perfbench
