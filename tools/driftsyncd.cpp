// driftsyncd — hosts one CSA on a real UDP transport (DESIGN.md S7).
//
// One daemon per processor; all daemons of a deployment share the same
// system description flags (--procs/--source/--rho/--links) so every CSA
// derives the same bounds mapping, exactly as the paper assumes the
// real-time specification is common knowledge.  Mixed --algo deployments
// are unsupported: view-propagating and scalar-payload CSAs do not speak
// the same payload dialect.
//
//   terminal 1:
//     driftsyncd --self=0 --procs=2 --links=0-1:0.0001,0.05
//         --bind=127.0.0.1:7700 --peers=1=127.0.0.1:7701
//   terminal 2:
//     driftsyncd --self=1 --procs=2 --links=0-1:0.0001,0.05
//         --bind=127.0.0.1:7701 --peers=0=127.0.0.1:7700
//   anywhere:
//     driftsync_probe --target=127.0.0.1:7701
//
// SIGUSR1 dumps one JSON stats line to stdout; --stats-interval dumps
// periodically; SIGINT/SIGTERM shut down cleanly.  --checkpoint makes the
// node persist its state (write-ahead, see runtime/node.h) and restore it
// on restart.  --dynamic-join lets the daemon admit spec neighbors that
// ask in at runtime (kJoinReq/kJoinAck) and honor kLeave; the default is a
// fixed roster.  --selftest runs a self-contained 3-node in-process
// network in virtual time (runtime::Mesh over a Hub) and exits 0 iff
// containment and convergence hold AND at least one causal trace id shows
// up on both its sender's and its receiver's event streams (the
// observability path is part of the daemon's contract, DESIGN.md §8);
// further legs re-run the check under a Byzantine third seat and under a
// mid-run dynamic join.
//
// Observability: every daemon carries a Tracer (--trace-buffer events,
// 0 disables) and answers kMetricsReq datagrams with Prometheus text plus
// an optional Chrome-trace snapshot — see driftsync_probe --metrics /
// --trace.  --trace-out=PATH writes the final trace snapshot as
// Perfetto-loadable JSON on shutdown (and always, for --selftest).
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cristian_csa.h"
#include "baselines/full_view_csa.h"
#include "baselines/interval_csa.h"
#include "baselines/ntp_csa.h"
#include "common/errors.h"
#include "common/flags.h"
#include "common/trace.h"
#include "core/optimal_csa.h"
#include "core/spec.h"
#include "runtime/byzantine.h"
#include "runtime/mesh.h"
#include "runtime/node.h"
#include "runtime/time_source.h"
#include "runtime/udp_transport.h"
#include "workloads/topology.h"

using namespace driftsync;
using runtime::Node;
using runtime::NodeConfig;

namespace {

constexpr const char* kUsage =
    "usage: driftsyncd --self=P --procs=N [--source=0] [--rho=1e-4]\n"
    "         --links='0-1:min,max[,min,max][;...]'   (per-direction bounds)\n"
    "         --bind=HOST:PORT --peers='P=HOST:PORT[;...]'\n"
    "         [--algo=optimal|fullview|interval|ntp|cristian]\n"
    "         [--poll=0.5] [--timeout=2.0] [--skip-retry=1.0]\n"
    "         [--serve [--max-clients=4096] [--client-idle-ms=30000]]\n"
    "         [--checkpoint=PATH] [--stats-interval=0] [--duration=0]\n"
    "         [--trace-buffer=4096] [--trace-out=PATH] [--dynamic-join]\n"
    "         [--clock-slew=0] [--clock-horizon=1.0] [--selftest]\n"
    "  --serve answers kClientReq datagrams (see driftsync_probe --client)\n"
    "  with at most --max-clients resident sessions (1..1048576); sessions\n"
    "  idle longer than --client-idle-ms (1..86400000) are reaped.\n"
    "  --dynamic-join announces this node to its configured neighbors at\n"
    "  startup, admits kJoinReq from spec neighbors at runtime and\n"
    "  honors kLeave; without it the roster is fixed at startup.\n"
    "  --clock-slew caps the disciplined output clock's |rate - 1| (0 =\n"
    "  derive from this node's drift spec); --clock-horizon is the seconds\n"
    "  over which steering would correct the full observed error.";

volatile std::sig_atomic_t g_terminate = 0;
volatile std::sig_atomic_t g_dump_stats = 0;

void on_terminate(int) { g_terminate = 1; }
void on_usr1(int) { g_dump_stats = 1; }

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_terminate;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sa.sa_handler = on_usr1;
  sigaction(SIGUSR1, &sa, nullptr);
}

std::uint16_t parse_port(const std::string& text) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v > 65535) {
    throw FlagError("bad port: " + text);
  }
  return static_cast<std::uint16_t>(v);
}

/// "HOST:PORT" for --bind and --peers entries.
std::pair<std::string, std::uint16_t> parse_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    throw FlagError("bad endpoint (need HOST:PORT): " + text);
  }
  return {text.substr(0, colon), parse_port(text.substr(colon + 1))};
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      if (start < text.size()) parts.push_back(text.substr(start));
      break;
    }
    if (end > start) parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

double parse_number(const std::string& text, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw FlagError(std::string("bad ") + what + ": " + text);
  }
  return v;
}

ProcId parse_proc(const std::string& text, std::size_t num_procs) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v >= num_procs) {
    throw FlagError("bad processor id: " + text);
  }
  return static_cast<ProcId>(v);
}

/// "0-1:min,max" (symmetric) or "0-1:min_ab,max_ab,min_ba,max_ba".
std::vector<LinkSpec> parse_links(const std::string& text,
                                  std::size_t num_procs) {
  std::vector<LinkSpec> links;
  for (const std::string& part : split(text, ';')) {
    const std::size_t colon = part.find(':');
    const std::size_t dash = part.find('-');
    if (colon == std::string::npos || dash == std::string::npos ||
        dash > colon) {
      throw FlagError("bad link (need A-B:min,max[,min,max]): " + part);
    }
    const ProcId a = parse_proc(part.substr(0, dash), num_procs);
    const ProcId b = parse_proc(part.substr(dash + 1, colon - dash - 1),
                                num_procs);
    const std::vector<std::string> nums =
        split(part.substr(colon + 1), ',');
    if (nums.size() != 2 && nums.size() != 4) {
      throw FlagError("bad link bounds (need 2 or 4 numbers): " + part);
    }
    const double min_ab = parse_number(nums[0], "link bound");
    const double max_ab = parse_number(nums[1], "link bound");
    if (nums.size() == 2) {
      links.emplace_back(a, b, min_ab, max_ab);
    } else {
      links.emplace_back(a, b, min_ab, max_ab,
                         parse_number(nums[2], "link bound"),
                         parse_number(nums[3], "link bound"));
    }
  }
  if (links.empty()) throw FlagError("no links given");
  return links;
}

std::unique_ptr<Csa> make_csa(const std::string& algo) {
  if (algo == "optimal") {
    OptimalCsa::Options opts;
    opts.loss_tolerant = true;  // Real transports lose messages.
    return std::make_unique<OptimalCsa>(opts);
  }
  if (algo == "fullview") return std::make_unique<FullViewCsa>();
  if (algo == "interval") return std::make_unique<IntervalCsa>();
  if (algo == "ntp") return std::make_unique<NtpCsa>();
  if (algo == "cristian") return std::make_unique<CristianCsa>();
  throw FlagError("unknown --algo: " + algo);
}

/// write_chrome_trace, saying why on stderr when it fails.
bool write_trace_json(const Tracer& tracer, const std::string& path) {
  if (write_chrome_trace(tracer, path)) return true;
  std::fprintf(stderr, "driftsyncd: cannot write %s: %s\n", path.c_str(),
               std::strerror(errno));
  return false;
}

constexpr double kSelftestOffsets[3] = {0.0, 41.5, -13.25};
constexpr double kSelftestRates[3] = {1.0, 1.0 + 3e-4, 1.0 - 2e-4};

/// The selftest legs' 3-node system: source 0, drift bound 5e-4, every
/// link specced [0, 50 ms]; the path 0-1-2, or the triangle.
SystemSpec selftest_spec(bool triangle) {
  const workloads::TopoParams params{
      .rho = 5e-4, .latency = sim::LatencyModel::uniform(0.0, 0.05)};
  return triangle ? workloads::make_ring(3, params).spec
                  : workloads::make_path(3, params).spec;
}

/// Adds seat p of a selftest leg: `cfg` with the legs' poll, fate and
/// skip periods, over a loss-tolerant OptimalCsa.
void add_selftest_seat(runtime::Mesh& mesh, ProcId p, NodeConfig cfg = {},
                       bool cross_validation = false) {
  cfg.self = p;
  cfg.poll_period = 0.05;
  cfg.fate_timeout = 0.25;
  cfg.skip_retry = 0.1;
  OptimalCsa::Options opts;
  opts.loss_tolerant = true;
  opts.cross_validation = cross_validation;
  mesh.add(std::move(cfg), opts, kSelftestOffsets[p], kSelftestRates[p]);
}

/// Second selftest leg: a triangle whose third seat lies (ByzantinePeer,
/// gross skew ramp) with the cross-path defense on.  Passes iff the honest
/// pair renounces the lies, quarantines exactly node 2, and still contains
/// true source time — and the scrape-able outputs (stats_json and the
/// driftsync_byzantine_* Prometheus series) show the defense counters
/// nonzero, so CI can assert the whole path end to end with a grep.
int run_selftest_byzantine() {
  runtime::Mesh mesh(selftest_spec(true), 11);
  mesh.hub().set_link(1, 2, 0.001, 0.008);
  runtime::ByzantineStrategy attack;
  attack.skew_rate = 2.0;  // Gross per-message lies: every one renounced.
  attack.skew_max = 100.0;
  mesh.set_byzantine(2, attack, 11);
  NodeConfig cfg;
  cfg.suspicion_decay = 0.9;
  for (ProcId p = 0; p < 3; ++p) {
    add_selftest_seat(mesh, p, cfg, /*cross_validation=*/true);
  }
  mesh.start();
  mesh.hub().run_for(2.0);

  int failures = 0;
  for (ProcId p = 0; p < 2; ++p) {
    const runtime::TruthBracket truth =
        runtime::contains_truth(mesh.node(p), mesh.hub());
    const runtime::NodeStats s = mesh.node(p).stats();
    const std::uint64_t renounced =
        s.infeasible_rejected + s.suspect_rejected + s.replay_rejected;
    const bool ok = truth && (p == 0 || truth.est.width() < 0.5) &&
                    renounced > 0 && s.quarantined.size() == 1 &&
                    s.quarantined[0] == 2;
    if (!ok) ++failures;
    std::printf("selftest byzantine node %u: width %.6f renounced %llu "
                "quarantined %zu %s\n",
                p, truth.est.width(),
                static_cast<unsigned long long>(renounced),
                s.quarantined.size(), ok ? "ok" : "FAIL");
    std::printf("%s\n", mesh.node(p).stats_json().c_str());
  }
  // One scrape, for the CI grep of the driftsync_byzantine_* series.
  std::printf("%s", mesh.node(0).metrics_text().c_str());
  return failures;
}

/// Third selftest leg: dynamic membership (DESIGN.md decision 19).  Nodes
/// 0 and 1 run as a two-node mesh; mid-run a third node comes up and joins
/// via the kJoinReq/kJoinAck handshake.  Passes iff both incumbents admit
/// it (peer_joins ticks), the joiner converges next to peers it was never
/// configured into, and everyone still contains true source time.
int run_selftest_join() {
  runtime::Mesh mesh(selftest_spec(true), 19);
  mesh.hub().set_link(1, 2, 0.001, 0.008);
  const auto add = [&mesh](ProcId p, std::vector<ProcId> peers) {
    NodeConfig cfg;
    cfg.peers = std::move(peers);
    cfg.dynamic_join = true;
    add_selftest_seat(mesh, p, std::move(cfg));
  };

  // The incumbents start WITHOUT node 2 on their rosters.
  add(0, {1});
  add(1, {0});
  mesh.start();
  mesh.hub().run_for(0.8);

  // Mid-run, the third seat comes up and asks in.
  add(2, {0, 1});
  mesh.node(2).admit_peer(0);
  mesh.node(2).admit_peer(1);
  mesh.hub().run_for(1.5);

  int failures = 0;
  for (ProcId p = 0; p < 3; ++p) {
    const runtime::TruthBracket truth =
        runtime::contains_truth(mesh.node(p), mesh.hub());
    const runtime::NodeStats s = mesh.node(p).stats();
    // Each incumbent must have admitted the joiner at runtime; the joiner
    // itself was configured with its roster, so its join counter stays 0.
    const bool ok = truth && (p == 0 || truth.est.width() < 0.5) &&
                    (p == 2 || s.peer_joins >= 1);
    if (!ok) ++failures;
    std::printf("selftest join node %u: width %.6f peer_joins %llu %s\n", p,
                truth.est.width(),
                static_cast<unsigned long long>(s.peer_joins),
                ok ? "ok" : "FAIL");
    std::printf("%s\n", mesh.node(p).stats_json().c_str());
  }
  return failures;
}

/// --selftest: a 3-node path with drifting clocks over the in-process hub
/// (asymmetric latency, 5% loss); passes iff every node's estimate contains
/// the true source time, the non-source widths converge, and the shared
/// trace shows at least one id on both a sender's and a receiver's stream.
int run_selftest(std::size_t trace_buffer, const std::string& trace_out) {
  runtime::Mesh mesh(selftest_spec(false), 7);
  // Stamped in the hub's virtual time, so the trace file replays exactly.
  // The mesh is stopped before the tracer goes away; nothing records after.
  Tracer tracer(trace_buffer == 0 ? 4096 : trace_buffer,
                [&mesh] { return mesh.hub().now(); });
  mesh.hub().set_tracer(&tracer);
  mesh.hub().set_link(0, 1, 0.0005, 0.004, 0.05);
  mesh.hub().set_link(1, 2, 0.001, 0.008, 0.05);
  NodeConfig cfg;
  cfg.tracer = &tracer;
  for (ProcId p = 0; p < 3; ++p) add_selftest_seat(mesh, p, cfg);
  mesh.start();
  mesh.hub().run_for(2.0);

  int failures = 0;
  for (ProcId p = 0; p < 3; ++p) {
    const runtime::TruthBracket truth =
        runtime::contains_truth(mesh.node(p), mesh.hub());
    const bool ok = truth && (p == 0 || truth.est.width() < 0.5);
    if (!ok) ++failures;
    std::printf("selftest node %u: [%.6f, %.6f] width %.6f %s\n", p,
                truth.est.lo, truth.est.hi, truth.est.width(),
                ok ? "ok" : "FAIL");
    std::printf("%s\n", mesh.node(p).stats_json().c_str());
  }
  mesh.stop();
  // Causal continuity: some message must be traceable end-to-end — its id
  // recorded as kSend at the sender AND as kDeliver at a different node.
  const std::vector<TraceEvent> events = tracer.snapshot();
  bool causal_pair = false;
  for (const TraceEvent& send : events) {
    if (send.kind != TraceEventKind::kSend || send.trace_id == 0) continue;
    for (const TraceEvent& recv : events) {
      if (recv.kind == TraceEventKind::kDeliver &&
          recv.trace_id == send.trace_id && recv.node != send.node) {
        causal_pair = true;
        break;
      }
    }
    if (causal_pair) break;
  }
  if (!causal_pair) {
    ++failures;
    std::printf("selftest trace: no cross-node send/deliver pair FAIL\n");
  }
  const std::string path =
      trace_out.empty() ? "driftsyncd_selftest_trace.json" : trace_out;
  if (!write_trace_json(tracer, path)) {
    ++failures;
  } else {
    std::printf("selftest trace: %zu events -> %s\n", events.size(),
                path.c_str());
  }
  failures += run_selftest_byzantine();
  failures += run_selftest_join();
  std::printf(failures == 0 ? "selftest PASS\n" : "selftest FAIL\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  // A bare `--selftest` (no value) would trip the Flags constructor's
  // missing-value check — or swallow the flag after it — so normalize it
  // to `--selftest=1` before general flag parsing.
  std::vector<std::string> args(argv, argv + argc);
  for (std::string& arg : args) {
    if (arg == "--selftest") arg = "--selftest=1";
    if (arg == "--serve") arg = "--serve=1";
    if (arg == "--dynamic-join") arg = "--dynamic-join=1";
  }
  std::vector<const char*> argp;
  argp.reserve(args.size());
  for (const std::string& arg : args) argp.push_back(arg.c_str());
  const Flags flags(argc, argp.data());
  const auto trace_buffer =
      static_cast<std::size_t>(flags.get_int("trace-buffer", 4096));
  const std::string trace_out = flags.get_string("trace-out", "");
  if (flags.get_bool("selftest", false)) {
    flags.reject_unknown(kUsage);
    return run_selftest(trace_buffer, trace_out);
  }

  const auto num_procs = static_cast<std::size_t>(flags.get_int("procs", 0));
  if (num_procs < 2) throw FlagError("--procs must be >= 2");
  const ProcId self = parse_proc(flags.get_string("self", ""), num_procs);
  const ProcId source = parse_proc(flags.get_string("source", "0"), num_procs);
  const double rho = flags.get_double("rho", 1e-4);
  if (rho < 0.0 || rho >= 1.0) throw FlagError("--rho must be in [0, 1)");
  std::vector<ClockSpec> clocks(num_procs, ClockSpec{rho});
  clocks[source].rho = 0.0;  // The source runs at the rate of real time.
  const SystemSpec spec(clocks,
                        parse_links(flags.get_string("links", ""), num_procs),
                        source);

  const auto [bind_host, bind_port] =
      parse_endpoint(flags.get_string("bind", ""));
  auto transport =
      std::make_unique<runtime::UdpTransport>(bind_host, bind_port);
  // The tracer outlives the Node (declared first) and is shared with the
  // transport; its presence also turns on wire trace ids (runtime/node.h).
  std::unique_ptr<Tracer> tracer;
  NodeConfig cfg;
  cfg.self = self;
  cfg.spec = spec;
  for (const std::string& part : split(flags.get_string("peers", ""), ';')) {
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) {
      throw FlagError("bad peer (need P=HOST:PORT): " + part);
    }
    const ProcId peer = parse_proc(part.substr(0, eq), num_procs);
    const auto [host, port] = parse_endpoint(part.substr(eq + 1));
    transport->add_peer(peer, host, port);
    cfg.peers.push_back(peer);
  }
  if (cfg.peers.empty()) throw FlagError("no peers given");
  cfg.poll_period = flags.get_double("poll", 0.5);
  cfg.fate_timeout = flags.get_double("timeout", 2.0);
  cfg.skip_retry = flags.get_double("skip-retry", 1.0);
  // Disciplined output clock (DESIGN.md decision 21): 0 = derive the slew
  // budget from this node's drift spec; the Node ctor range-checks.
  cfg.clock_max_slew = flags.get_double("clock-slew", 0.0);
  cfg.clock_steer_horizon = flags.get_double("clock-horizon", 1.0);
  cfg.checkpoint_path = flags.get_string("checkpoint", "");
  // Dynamic membership (DESIGN.md decision 19): default closed so a fixed
  // deployment cannot be grown by whoever can spoof a spec neighbor.
  cfg.dynamic_join = flags.get_bool("dynamic-join", false);
  // Serving tier (DESIGN.md decision 17).  The range checks live in the
  // flag getter so nonsense ("--max-clients=0") dies with usage text.
  const bool serve = flags.get_bool("serve", false);
  const std::uint64_t max_clients =
      flags.get_uint_range("max-clients", 4096, 1, 1u << 20);
  const std::uint64_t client_idle_ms =
      flags.get_uint_range("client-idle-ms", 30'000, 1, 86'400'000);
  if (!serve && (flags.has("max-clients") || flags.has("client-idle-ms"))) {
    throw FlagError("--max-clients/--client-idle-ms require --serve");
  }
  if (serve) {
    cfg.serve_max_clients = static_cast<std::size_t>(max_clients);
    cfg.serve_idle_timeout = static_cast<double>(client_idle_ms) / 1000.0;
  }
  const double stats_interval = flags.get_double("stats-interval", 0.0);
  const double duration = flags.get_double("duration", 0.0);
  const std::string algo = flags.get_string("algo", "optimal");
  flags.reject_unknown(kUsage);

  if (trace_buffer > 0) {
    tracer = std::make_unique<Tracer>(trace_buffer);
    cfg.tracer = tracer.get();
    transport->set_tracer(tracer.get(), self);
  }
  Node node(cfg, make_csa(algo), std::make_unique<runtime::SystemTimeSource>(),
            std::move(transport));
  install_signal_handlers();
  node.start();  // Throws CheckpointError on a rejected checkpoint.
  if (cfg.dynamic_join) {
    // Announce ourselves: a JoinReq to every configured spec neighbor lets
    // a daemon join a RUNNING mesh whose incumbents were never configured
    // with us — they learn our address from the datagram's source and
    // admit us back.  Idempotent at every receiver, so incumbents
    // restarting with the flag cost only one datagram per neighbor.
    for (const ProcId p : cfg.peers) {
      if (spec.are_neighbors(self, p)) node.admit_peer(p);
    }
  }
  std::fprintf(stderr, "driftsyncd: node %u up (%s), %zu peer(s)%s\n", self,
               algo.c_str(), cfg.peers.size(),
               serve ? ", serving clients" : "");

  const runtime::SystemTimeSource wall;
  const double started = wall.now();
  double next_stats =
      stats_interval > 0.0 ? started + stats_interval : 0.0;
  while (g_terminate == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (g_dump_stats != 0) {
      g_dump_stats = 0;
      std::printf("%s\n", node.stats_json().c_str());
      std::fflush(stdout);
    }
    const double now = wall.now();
    if (next_stats > 0.0 && now >= next_stats) {
      next_stats += stats_interval;
      std::printf("%s\n", node.stats_json().c_str());
      std::fflush(stdout);
    }
    if (duration > 0.0 && now - started >= duration) break;
  }
  node.stop();
  std::printf("%s\n", node.stats_json().c_str());
  if (tracer != nullptr && !trace_out.empty()) {
    if (!write_trace_json(*tracer, trace_out)) return 1;
  }
  return 0;
} catch (const driftsync::FlagError& e) {
  std::fprintf(stderr, "%s\n%s\n", e.what(), kUsage);
  return 2;
} catch (const driftsync::DecodeError& e) {
  std::fprintf(stderr, "driftsyncd: %s\n", e.what());
  return 1;
} catch (const std::runtime_error& e) {
  std::fprintf(stderr, "driftsyncd: %s\n", e.what());
  return 1;
}
