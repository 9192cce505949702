// Structure-aware mutation fuzzer for the wire decoders (core/wire.* and
// runtime/datagram.*).
//
// Contract under test: decode_batch / decode_datagram over arbitrary bytes
// must either throw the typed recoverable WireError, or return a value
// whose re-encoding reproduces the input byte for byte (decode is a strict
// inverse of the canonical encoder).  They must never crash, throw
// anything else (a DS_CHECK std::logic_error escaping here means malformed
// input reached an invariant check), or allocate more than the input size
// justifies.
//
// Two dictionary stages per seed: a structurally valid event batch
// (core-layer framing) and a structurally valid datagram drawn from all
// twelve wire types — including the serving tier's ClientReq/ClientResp
// and the membership handshake JoinReq/JoinAck/Leave — each mutated and
// fed back through its decoder.  The datagram stage also decodes every
// input into one long-lived DataMsg, as a Node does (decode_data_into):
// the reused target must reject exactly what decode_datagram rejects and
// otherwise hold exactly its DataMsg, whatever an earlier input left in it.
//
//   $ ./fuzz_wire [--iterations=N] [--seconds=S] [--seed0=K]
//
// Any violation aborts with the reproducer seed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/errors.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/wire.h"
#include "fuzz_mutate.h"
#include "runtime/datagram.h"

using namespace driftsync;

namespace {

constexpr std::size_t kMutationsPerBatch = 64;
constexpr std::size_t kMutationsPerDatagram = 32;

/// Random structurally valid batch: per-processor sequence numbers, sends
/// matched by later receives, loss declarations, contiguous runs.
EventBatch random_batch(Rng& rng) {
  const std::size_t procs = 2 + rng.uniform_index(6);
  std::vector<std::uint32_t> next_seq(procs, 0);
  std::vector<EventRecord> pending_sends;
  EventBatch batch;
  double t = 0.0;
  const std::size_t n = rng.uniform_index(200);
  for (std::size_t i = 0; i < n; ++i) {
    const ProcId p = static_cast<ProcId>(rng.uniform_index(procs));
    t += rng.uniform(0.0, 1.0);
    EventRecord r;
    r.lt = t;
    const double action = rng.next_double();
    if (action < 0.35) {
      ProcId q = static_cast<ProcId>(rng.uniform_index(procs));
      if (q == p) q = static_cast<ProcId>((q + 1) % procs);
      r.id = EventId{p, next_seq[p]++};
      r.kind = EventKind::kSend;
      r.peer = q;
      pending_sends.push_back(r);
    } else if (action < 0.55 && !pending_sends.empty()) {
      const std::size_t k = rng.uniform_index(pending_sends.size());
      const EventRecord s = pending_sends[k];
      pending_sends.erase(pending_sends.begin() +
                          static_cast<std::ptrdiff_t>(k));
      r.id = EventId{s.peer, next_seq[s.peer]++};
      r.kind = rng.flip(0.85) ? EventKind::kReceive : EventKind::kLossDecl;
      r.peer = s.id.proc;
      r.match = s.id;
    } else {
      r.id = EventId{p, next_seq[p]++};
      r.kind = EventKind::kInternal;
    }
    batch.push_back(r);
  }
  return batch;
}

std::string random_string(Rng& rng, std::size_t max_len) {
  std::string s(rng.uniform_index(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform_index(256));
  return s;
}

/// Random structurally valid datagram covering all twelve wire types.
runtime::Datagram random_datagram(Rng& rng) {
  switch (rng.uniform_index(12)) {
    case 0: {
      runtime::DataMsg m;
      m.from = static_cast<ProcId>(rng.uniform_index(8));
      m.dgram_seq = 1 + rng.uniform_index(1000);
      m.processed_hw = rng.uniform_index(1000);
      m.seen_hw = m.processed_hw + rng.uniform_index(10);
      m.app_tag = static_cast<std::uint32_t>(rng.uniform_index(16));
      m.send_seq = static_cast<std::uint32_t>(rng.uniform_index(1000));
      m.send_lt = rng.uniform(0.0, 1e6);
      m.payload.reports = random_batch(rng);
      m.payload.scalars.resize(rng.uniform_index(4));
      for (double& s : m.payload.scalars) s = rng.uniform(-1e3, 1e3);
      if (rng.flip(0.5)) m.trace_id = rng.next_u64();
      return m;
    }
    case 1: {
      runtime::AckMsg m;
      m.from = static_cast<ProcId>(rng.uniform_index(8));
      m.processed_hw = rng.uniform_index(1000);
      m.seen_hw = m.processed_hw + rng.uniform_index(10);
      return m;
    }
    case 2: {
      runtime::SkipMsg m;
      m.from = static_cast<ProcId>(rng.uniform_index(8));
      m.skip_to = 1 + rng.uniform_index(1000);
      return m;
    }
    case 3:
      return runtime::ProbeReq{rng.next_u64()};
    case 4: {
      runtime::ProbeResp m;
      m.nonce = rng.next_u64();
      m.from = static_cast<ProcId>(rng.uniform_index(8));
      m.local_time = rng.uniform(0.0, 1e6);
      m.lo = rng.uniform(-1e3, 1e3);
      m.hi = m.lo + rng.uniform(0.0, 10.0);
      m.stats_json = random_string(rng, 200);
      return m;
    }
    case 5:
      return runtime::MetricsReq{
          rng.next_u64(), static_cast<std::uint32_t>(rng.uniform_index(500))};
    case 6: {
      runtime::MetricsResp m;
      m.nonce = rng.next_u64();
      m.from = static_cast<ProcId>(rng.uniform_index(8));
      m.metrics = random_string(rng, 200);
      m.trace_json = random_string(rng, 100);
      return m;
    }
    case 7: {
      runtime::ClientReq m;
      m.client_id = 1 + rng.uniform_index(1u << 20);
      m.req_seq = 1 + rng.uniform_index(1000);
      m.client_lt = rng.uniform(0.0, 1e6);
      m.last_rtt = rng.flip(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
      return m;
    }
    case 8: {
      runtime::ClientResp m;
      m.client_id = 1 + rng.uniform_index(1u << 20);
      m.req_seq = 1 + rng.uniform_index(1000);
      m.echo_lt = rng.uniform(0.0, 1e6);
      m.from = static_cast<ProcId>(rng.uniform_index(8));
      m.server_lt = rng.uniform(0.0, 1e6);
      m.lo = rng.uniform(-1e3, 1e3);
      m.hi = m.lo + rng.uniform(0.0, 10.0);
      return m;
    }
    case 9:
      return runtime::JoinReqMsg{static_cast<ProcId>(rng.uniform_index(8)),
                                 1 + rng.next_u64() % 1000000};
    case 10:
      return runtime::JoinAckMsg{static_cast<ProcId>(rng.uniform_index(8)),
                                 1 + rng.next_u64() % 1000000};
    default:
      return runtime::LeaveMsg{static_cast<ProcId>(rng.uniform_index(8))};
  }
}

[[noreturn]] void die(std::uint64_t seed, const char* what) {
  std::fprintf(stderr, "fuzz_wire FAILURE at seed=%llu: %s\n",
               static_cast<unsigned long long>(seed), what);
  std::abort();
}

/// decode_data_into `bytes` into the long-lived `reused` must agree with
/// decode_datagram: a data datagram decodes to exactly its DataMsg,
/// another type leaves the target alone, and whatever decode_datagram
/// rejects is rejected (or, for another type's body, never read).
/// Returns whether decode_data_into threw.
bool check_reused(std::uint64_t seed, runtime::DataMsg& reused,
                  std::span<const std::uint8_t> bytes) {
  bool value_threw = false;
  runtime::Datagram by_value;
  try {
    by_value = runtime::decode_datagram(bytes);
  } catch (const WireError&) {
    value_threw = true;
  }
  bool into_threw = false;
  std::span<const std::uint8_t> observed;
  try {
    observed = runtime::decode_data_into(reused, bytes);
  } catch (const WireError&) {
    into_threw = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wrong exception type: %s\n", e.what());
    die(seed, "decode_data_into threw something other than WireError");
  }
  if (value_threw) {
    if (!into_threw && !observed.empty()) {
      die(seed, "decode_data_into accepted what decode_datagram rejects");
    }
  } else if (const auto* data = std::get_if<runtime::DataMsg>(&by_value)) {
    if (into_threw || observed.empty() || !(reused == *data)) {
      die(seed, "reused DataMsg differs from decode_datagram's");
    }
  } else if (into_threw || !observed.empty()) {
    die(seed, "decode_data_into read a datagram of another type");
  }
  return into_threw;
}

std::size_t fuzz_once(std::uint64_t seed, runtime::DataMsg& reused) {
  Rng rng(seed);
  const EventBatch batch = random_batch(rng);
  const std::vector<std::uint8_t> bytes = wire::encode_batch(batch);

  // Sanity: the canonical encoding itself must round-trip.
  if (wire::decode_batch(bytes) != batch) die(seed, "valid batch rejected");
  if (bytes.size() != wire::encoded_size(batch)) {
    die(seed, "encoded_size disagrees with encoder");
  }

  std::size_t iterations = 0;
  for (std::size_t m = 0; m < kMutationsPerBatch; ++m, ++iterations) {
    const std::vector<std::uint8_t> mut = fuzzing::mutate(bytes, rng);
    try {
      const EventBatch decoded = wire::decode_batch(mut);
      if (wire::encode_batch(decoded) != mut) {
        die(seed, "accepted buffer does not re-encode byte-for-byte");
      }
    } catch (const WireError&) {
      // Typed rejection: the expected outcome for malformed bytes.
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wrong exception type: %s\n", e.what());
      die(seed, "decode threw something other than WireError");
    }
  }

  // Datagram-level dictionary: a valid datagram of a random type, mutated
  // and fed through decode_datagram under the same contract.
  const runtime::Datagram dgram = random_datagram(rng);
  const std::vector<std::uint8_t> dgram_bytes =
      runtime::encode_datagram(dgram);
  if (!(runtime::decode_datagram(dgram_bytes) == dgram) ||
      check_reused(seed, reused, dgram_bytes)) {
    die(seed, "valid datagram rejected");
  }
  for (std::size_t m = 0; m < kMutationsPerDatagram; ++m, ++iterations) {
    const std::vector<std::uint8_t> mut = fuzzing::mutate(dgram_bytes, rng);
    try {
      const runtime::Datagram decoded = runtime::decode_datagram(mut);
      if (runtime::encode_datagram(decoded) != mut) {
        die(seed, "accepted datagram does not re-encode byte-for-byte");
      }
    } catch (const WireError&) {
      // Typed rejection: the expected outcome for malformed bytes.
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wrong exception type: %s\n", e.what());
      die(seed, "decode_datagram threw something other than WireError");
    }
    // A rejection leaves the target dirty: the valid datagram must still
    // decode into it exactly.
    if (check_reused(seed, reused, mut)) {
      (void)check_reused(seed, reused, dgram_bytes);
    }
  }

  // Primitive-level probe: get_varint over random bytes either throws the
  // typed error or consumes a canonical encoding of the returned value.
  for (int k = 0; k < 8; ++k, ++iterations) {
    std::vector<std::uint8_t> raw(1 + rng.uniform_index(12));
    for (std::uint8_t& b : raw) {
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    std::size_t offset = 0;
    try {
      const std::uint64_t v = wire::get_varint(raw, offset);
      std::vector<std::uint8_t> re;
      wire::put_varint(re, v);
      if (std::span<const std::uint8_t>(raw.data(), offset).size() !=
              re.size() ||
          !std::equal(re.begin(), re.end(), raw.begin())) {
        die(seed, "accepted varint is not the canonical encoding");
      }
    } catch (const WireError&) {
    } catch (const std::exception&) {
      die(seed, "get_varint threw something other than WireError");
    }
  }
  return iterations;
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  const auto iterations =
      static_cast<std::uint64_t>(flags.get_int("iterations", 10000));
  const double seconds = flags.get_double("seconds", 0.0);
  const std::uint64_t seed0 = flags.get_seed("seed0", 1);
  flags.reject_unknown(
      "usage: fuzz_wire [--iterations=N] [--seconds=S] [--seed0=N]");

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  std::uint64_t scenario = 0;
  runtime::DataMsg reused;  // Dirty across every scenario, as in a Node.
  while (true) {
    if (seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= seconds) break;
    } else if (done >= iterations) {
      break;
    }
    done += fuzz_once(seed0 + scenario++, reused);
  }
  std::printf(
      "fuzz_wire: %llu mutations over %llu batches, 0 contract violations\n",
      static_cast<unsigned long long>(done),
      static_cast<unsigned long long>(scenario));
  return 0;
} catch (const driftsync::FlagError& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
