#include "runtime/mesh.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include <unistd.h>

#include "common/check.h"
#include "runtime/time_source.h"

namespace driftsync::runtime {

TruthBracket contains_truth(const Node& node, const TimeSource& truth) {
  // Braced initializers evaluate left to right: t0, estimate, t1.
  return {truth.now(), node.estimate(), truth.now()};
}

Mesh::Mesh(SystemSpec spec, std::uint64_t hub_seed,
           InvariantOracle::Options oracle, std::FILE* journal)
    : spec_(std::move(spec)),
      hub_(hub_seed),
      log_(hub_, journal),
      oracle_(hub_, oracle),
      seats_(spec_.num_procs()) {
  for (const LinkSpec& link : spec_.links()) {
    hub_.set_link(link.a, link.b, 0.0005, 0.004);
  }
}

Mesh::~Mesh() {
  stop();
  for (Seat& s : seats_) {
    s.node.reset();
    if (s.scratch_checkpoint.empty()) continue;
    for (const char* suffix : {"", ".tmp", ".log"}) {
      std::remove((s.scratch_checkpoint + suffix).c_str());
    }
  }
}

const Mesh::Seat& Mesh::live(ProcId p) const {
  const Seat& s = seats_.at(p);
  DS_CHECK_MSG(s.node != nullptr, "empty seat");
  return s;
}

ByzantinePeer& Mesh::byzantine(ProcId p) const {
  const Seat& s = live(p);
  DS_CHECK_MSG(s.liar != nullptr, "seat is not Byzantine");
  return *s.liar;
}

Mesh::Seat& Mesh::recipe(ProcId p) {
  Seat& s = seats_.at(p);
  DS_CHECK_MSG(s.node == nullptr, "a seat's recipe is fixed once added");
  return s;
}

void Mesh::set_byzantine(ProcId p, const ByzantineStrategy& strategy,
                         std::uint64_t seed) {
  Seat& s = recipe(p);
  s.strategy = strategy;
  s.liar_seed = seed;
}

Node& Mesh::add(NodeConfig cfg, const OptimalCsa::Options& opts,
                double offset, double rate, const ChaosFaults& faults,
                std::uint64_t fault_seed) {
  const ProcId p = cfg.self;
  Seat& s = recipe(p);
  cfg.spec = spec_;
  s.cfg = std::move(cfg);
  s.opts = opts;
  s.offset = offset;
  s.rate = rate;
  s.faults = faults;
  s.fault_seed = fault_seed;
  build(s, p);
  oracle_.track(name(p), s.node.get(), spec_.clock(p).rho);
  if (started_) s.node->start();
  return *s.node;
}

void Mesh::build(Seat& s, ProcId p) {
  auto chaos = std::make_unique<ChaosTransport>(
      hub_.endpoint(p), p, s.faults, s.fault_seed, hub_, &log_);
  s.chaos = chaos.get();
  std::unique_ptr<Transport> transport = std::move(chaos);
  if (s.strategy) {
    auto liar = std::make_unique<ByzantinePeer>(
        std::move(transport), p, *s.strategy, s.liar_seed, hub_, &log_);
    s.liar = liar.get();
    transport = std::move(liar);
  }
  auto clock = std::make_unique<FaultyTimeSource>(
      std::make_unique<ScaledTimeSource>(hub_, s.offset, s.rate), p, &log_);
  s.clock = clock.get();
  s.node = std::make_unique<Node>(s.cfg, std::make_unique<OptimalCsa>(s.opts),
                                  std::move(clock), std::move(transport));
}

void Mesh::start() {
  DS_CHECK_MSG(!started_, "mesh started twice");
  started_ = true;
  for (Seat& s : seats_) {
    if (s.node != nullptr) s.node->start();
  }
}

void Mesh::stop() {
  for (Seat& s : seats_) {
    if (s.node != nullptr) s.node->stop();
  }
}

void Mesh::kill(ProcId p) { node(p).stop(); }

Node& Mesh::restart(ProcId p) {
  Seat& s = seats_.at(p);
  kill(p);
  s.node.reset();
  build(s, p);
  oracle_.note_restart(name(p), s.node.get());
  s.node->start();
  return *s.node;
}

const std::string& Mesh::checkpoint_path(ProcId p) {
  static std::uint64_t next_file = 0;
  std::string& path = seats_.at(p).scratch_checkpoint;
  if (path.empty()) {
    path = (std::filesystem::temp_directory_path() /
            ("driftsync_mesh." + std::to_string(::getpid()) + "." +
             std::to_string(next_file++) + ".ckpt"))
               .string();
    std::remove(path.c_str());
  }
  return path;
}

void Mesh::observe_for(double seconds) {
  for (double t = 0.0; t < seconds; t += 0.1) {
    hub_.run_for(std::min(0.1, seconds - t));
    oracle_.observe();
  }
}

}  // namespace driftsync::runtime
