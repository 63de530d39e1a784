#include "simnet/topology.hpp"

#include <cassert>

namespace dgiwarp::sim {

Topology::Topology() : Topology(Params{}) {}

Topology::Topology(Params params) : params_(params), rng_(params.seed) {
  assert(params_.leaves >= 1);
  assert(params_.trunk_cables >= 1);

  if (params_.leaves == 1) {
    // The paper's testbed: one switch, no spine.
    leaves_.push_back(std::make_unique<Switch>(
        sim_, rng_, params_.switch_latency, "switch0",
        params_.fdb_capacity));
    return;
  }

  for (std::size_t i = 0; i < params_.leaves; ++i)
    leaves_.push_back(std::make_unique<Switch>(
        sim_, rng_, params_.switch_latency, "leaf" + std::to_string(i),
        params_.fdb_capacity));
  spine_ = std::make_unique<Switch>(sim_, rng_, params_.switch_latency,
                                    "spine0", params_.fdb_capacity);

  // One trunk LAG per leaf, joining it to the spine. The tree is loop-free
  // by construction (leaves only ever talk through the single spine), which
  // learning + flooding requires.
  trunks_.resize(params_.leaves);
  for (std::size_t i = 0; i < params_.leaves; ++i) {
    Trunk& t = trunks_[i];
    const std::string leaf_name = leaves_[i]->name();
    std::vector<Link*> up_raw, down_raw;
    for (std::size_t c = 0; c < params_.trunk_cables; ++c) {
      const std::string suffix = "#" + std::to_string(c);
      t.up.push_back(std::make_unique<Link>(
          sim_, rng_, params_.trunk_link,
          leaf_name + "->spine0" + suffix));
      t.down.push_back(std::make_unique<Link>(
          sim_, rng_, params_.trunk_link,
          "spine0->" + leaf_name + suffix));
      up_raw.push_back(t.up.back().get());
      down_raw.push_back(t.down.back().get());
    }
    t.leaf_port = leaves_[i]->add_trunk(std::move(up_raw));
    t.spine_port = spine_->add_trunk(std::move(down_raw));

    // Frames leaving the leaf on any LAG member arrive at the spine's trunk
    // port for that leaf, and vice versa.
    Switch* spine = spine_.get();
    Switch* leaf = leaves_[i].get();
    const std::size_t spine_port = t.spine_port;
    const std::size_t leaf_port = t.leaf_port;
    for (auto& cable : t.up)
      cable->set_receiver([spine, spine_port](Frame f) {
        spine->deliver(spine_port, std::move(f));
      });
    for (auto& cable : t.down)
      cable->set_receiver([leaf, leaf_port](Frame f) {
        leaf->deliver(leaf_port, std::move(f));
      });
  }
}

std::size_t Topology::add_host(const std::string& name) {
  const std::size_t index = nics_.size();
  const LinkAddr addr = static_cast<LinkAddr>(index + 1);
  nics_.push_back(std::make_unique<Nic>(addr, name));
  nics_.back()->bind_telemetry(sim_.telemetry());
  const std::size_t leaf = index % leaves_.size();
  const std::size_t port =
      leaves_[leaf]->attach(*nics_.back(), params_.host_link);
  locs_.push_back({leaf, port});
  return index;
}

void Topology::attach_health() {
  auto& reg = sim_.telemetry();
  const bool sample = reg.sampler().enabled();
  const bool watch = reg.watchdog().enabled();
  if (!sample && !watch) return;
  auto register_link = [&](Link* l) {
    auto depth = [l] { return static_cast<double>(l->queue_depth()); };
    if (sample)
      reg.sampler().add_probe("link." + l->name() + ".queue_depth", depth);
    if (watch) reg.watchdog().watch_queue(l->name(), depth);
  };
  for (Trunk& t : trunks_) {
    for (auto& cable : t.up) register_link(cable.get());
    for (auto& cable : t.down) register_link(cable.get());
  }
}

double Topology::oversubscription(std::size_t i) const {
  double host_bps = 0.0;
  for (std::size_t h = 0; h < locs_.size(); ++h)
    if (locs_[h].leaf == i) host_bps += params_.host_link.bandwidth_bps;
  const double trunk_bps =
      params_.trunk_link.bandwidth_bps *
      static_cast<double>(params_.trunk_cables);
  return trunk_bps > 0.0 ? host_bps / trunk_bps : 0.0;
}

}  // namespace dgiwarp::sim
