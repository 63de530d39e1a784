#include "hoststack/host.hpp"

namespace dgiwarp::host {

Host::Host(sim::Topology& topo, const std::string& name, CostModel costs)
    : costs_(costs),
      index_(topo.add_host(name)),
      cpu_(topo.sim()),
      ctx_{topo.sim(),  cpu_,          topo.nic(index_),
           costs_,      ledger_,       topo.rng(),
           topo.addr(index_)},
      ip_(ctx_),
      udp_(ctx_, ip_),
      tcp_(ctx_, ip_) {}

}  // namespace dgiwarp::host
