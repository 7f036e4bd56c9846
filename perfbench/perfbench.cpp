// Repository benchmark: runs one named workload for a wall-clock budget,
// checks its outputs, and prints every metric by name with its unit.
//
//   perfbench --workload steady|stream|recovery --seed N --seconds S
//             --trace 0|1 [--spans PATH]
//
// Each workload repeats a fixed unit of work ("rep") until the budget is
// spent, at least twice, and reports host times as medians over reps. Run
// time is reported in units of a fixed reference kernel timed between
// slices of each rep, so that the shared host's drifting speed cancels out.
// Simulated metrics (delay, delivery, bytes, per-kind counters) depend only
// on the seed, so every rep of a seed must reproduce them exactly; the
// delivery checksum enforces that. With --trace 1 the reps alternate
// untraced and traced: traced reps wrap every node's endpoint, and the
// per-layer metrics come from them; a traced run also measures the wire and
// runtime layers over UDP loopback. README.md in this directory explains
// every metric.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// Lines before it are a human-readable detail report.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/delivery_tracker.h"
#include "common/rng.h"
#include "gocast/messages.h"
#include "gocast/system.h"
#include "membership/member_entry.h"
#include "net/latency_model.h"
#include "overlay/messages.h"
#include "runtime/udp_runtime.h"
#include "tree/messages.h"
#include "wire/codec.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace gocast;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an ascending sample of n values.
double percentile(const double* sorted, std::size_t n, double p) {
  if (n == 0) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t idx =
      std::min(n - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return sorted[idx];
}

/// The highest of p99, p99.9, p99.99, ... that leaves at least ten samples
/// beyond it (p50 for samples too small for p99).
double tail_percentile(std::size_t n) {
  double best = 50.0;
  for (double beyond = 0.01; static_cast<double>(n) * beyond >= 10.0;
       beyond /= 10.0) {
    best = 100.0 * (1.0 - beyond);
  }
  return best;
}

/// Median, p99 and tail of one rep's delay sample, in ms.
struct DelayStats {
  std::size_t samples = 0;
  double tail_percentile = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail = 0.0;
};

/// Sorts sample[0..n) in place.
DelayStats delay_stats(double* sample, std::size_t n) {
  std::sort(sample, sample + n);
  DelayStats d;
  d.samples = n;
  d.tail_percentile = tail_percentile(n);
  d.p50 = percentile(sample, n, 50.0);
  d.p99 = percentile(sample, n, 99.0);
  d.tail = percentile(sample, n, d.tail_percentile);
  return d;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

// ---------------------------------------------------------------------------
// Span recording: per-boundary counts and self time are aggregated in place;
// only every kSpanSampleEvery-th span is kept, and the kept spans are written
// as JSON lines when the benchmark exits.

constexpr std::uint64_t kSpanSampleEvery = 4096;

struct Span {
  std::uint32_t rep;       ///< the rep span that caused it
  const char* layer;
  const char* what;
  double start_s;          ///< since the benchmark started
  double duration_s;
};

struct SpanLog {
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;
  std::uint64_t seen = 0;

  void offer(std::uint32_t rep, const char* layer, const char* what,
             Clock::time_point start, Clock::time_point end) {
    if (seen++ % kSpanSampleEvery != 0) return;
    spans.push_back({rep, layer, what, seconds_between(origin, start),
                     seconds_between(start, end)});
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   path.c_str());
      return;
    }
    for (const Span& s : spans) {
      std::fprintf(f,
                   "{\"rep\": %u, \"layer\": \"%s\", \"what\": \"%s\", "
                   "\"start_s\": %.9f, \"duration_s\": %.9f}\n",
                   s.rep, s.layer, s.what, s.start_s, s.duration_s);
    }
    std::fclose(f);
  }
};

// ---------------------------------------------------------------------------
// Simulator workloads.

/// Fixed reference work that uses none of the library: a small
/// discrete-event loop in which events pop off a binary heap, hash and update
/// the state of one of 65,536 nodes (6 MiB), update a 65,536-entry ordered
/// map and schedule an event at one of the node's peers. Its shape (heap,
/// scattered node state, tree lookups, branches) is the simulator's. Units
/// of it are timed between slices of every rep, and run time is reported in
/// units of it: on a shared host both slow down together, the kernel by
/// somewhat less (see README.md).
class ReferenceKernel {
 public:
  ReferenceKernel() : nodes_(kNodes) {
    std::uint64_t x = 0x5EED;
    for (Node& n : nodes_) {
      for (std::uint64_t& word : n.state) word = splitmix64(x);
      for (std::uint32_t& peer : n.peers) {
        peer = static_cast<std::uint32_t>(splitmix64(x) % kNodes);
      }
    }
    for (std::uint32_t key = 0; key < kKeys; ++key) seen_.emplace(key, key);
    for (std::uint32_t i = 0; i < kHeap; ++i) {
      heap_.emplace_back(static_cast<double>(splitmix64(x) >> 11) * 0x1p-53,
                         static_cast<std::uint32_t>(splitmix64(x) % kNodes));
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    for (int i = 0; i < 256; ++i) run_unit();  // warm caches and branches
  }

  /// Runs one unit (512 events); returns its host seconds.
  double run_unit() {
    const auto start = Clock::now();
    for (int i = 0; i < 512; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const auto [t, id] = heap_.back();
      heap_.pop_back();
      Node& n = nodes_[id];
      std::uint64_t h = (n.state[id & 7] ^ std::bit_cast<std::uint64_t>(t)) *
                        0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
      n.state[(h >> 7) & 7] += h;
      seen_.find(static_cast<std::uint32_t>(h % kKeys))->second ^= id;
      heap_.emplace_back(t + 1e-3 + static_cast<double>(h >> 44) * 1e-9,
                         n.peers[(h >> 3) % n.peers.size()]);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return seconds_between(start, Clock::now());
  }

 private:
  static constexpr std::uint32_t kNodes = 1u << 16;
  static constexpr std::uint32_t kKeys = 1u << 16;
  static constexpr std::uint32_t kHeap = 4096;
  struct Node {
    std::array<std::uint64_t, 8> state;
    std::array<std::uint32_t, 6> peers;
  };
  static std::uint64_t splitmix64(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::vector<Node> nodes_;
  std::vector<std::pair<double, std::uint32_t>> heap_;
  std::map<std::uint32_t, std::uint32_t> seen_;
};

struct SimSpec {
  std::size_t nodes;
  SimTime warmup;          ///< simulated seconds before injection starts
  std::size_t messages;    ///< multicasts injected
  double rate;             ///< multicasts per simulated second (open loop)
  SimTime drain;           ///< simulated seconds after the last injection
  double crash_fraction;   ///< nodes crashed when injection starts
};

// Handler layers: each MsgKind maps onto the module whose handler it runs.
enum Layer : std::size_t {
  kLayerOverlay,
  kLayerMembership,
  kLayerTree,
  kLayerData,
  kLayerGossip,
  kLayerPull,
  kLayerCount,
};
constexpr std::array<const char*, kLayerCount> kLayerMetric = {
    "overlay.handler_s",       "membership.handler_s",
    "tree.handler_s",          "gocast.handler_s.data",
    "gocast.handler_s.gossip", "gocast.handler_s.pull",
};
constexpr std::array<const char*, kLayerCount> kLayerName = {
    "overlay", "membership", "tree", "gocast", "gocast", "gocast",
};

Layer layer_of(net::MsgKind kind) {
  switch (kind) {
    case net::MsgKind::kData: return kLayerData;
    case net::MsgKind::kGossipDigest: return kLayerGossip;
    case net::MsgKind::kPullRequest: return kLayerPull;
    case net::MsgKind::kTreeControl: return kLayerTree;
    case net::MsgKind::kMembership: return kLayerMembership;
    default: return kLayerOverlay;
  }
}

struct HandlerLedger {
  std::array<double, kLayerCount> seconds{};
  std::array<std::uint64_t, kLayerCount> calls{};
  double hook_seconds = 0.0;         ///< analysis layer (delivery hook)
  double nested_hook_seconds = 0.0;  ///< part of it inside data handlers
};

/// Forwarding endpoint installed with Network::set_endpoint in traced reps:
/// times every handler call and charges it to the message kind's layer.
/// Send failures (the TCP-reset analogue) are overlay work.
class TracingEndpoint final : public net::Endpoint {
 public:
  TracingEndpoint(net::Endpoint* inner, HandlerLedger* ledger, SpanLog* log,
                  std::uint32_t rep)
      : inner_(inner), ledger_(ledger), log_(log), rep_(rep) {}

  void handle_message(NodeId from, const net::MessagePtr& msg) override {
    const Layer layer = layer_of(msg->kind());
    const auto start = Clock::now();
    inner_->handle_message(from, msg);
    charge(layer, net::msg_kind_name(msg->kind()), start);
  }

  void handle_send_failure(NodeId to, const net::MessagePtr& msg) override {
    const auto start = Clock::now();
    inner_->handle_send_failure(to, msg);
    charge(kLayerOverlay, "send-failure", start);
  }

 private:
  void charge(Layer layer, const char* what, Clock::time_point start) {
    const auto end = Clock::now();
    ledger_->seconds[layer] += seconds_between(start, end);
    ++ledger_->calls[layer];
    log_->offer(rep_, kLayerName[layer], what, start, end);
  }

  net::Endpoint* inner_;
  HandlerLedger* ledger_;
  SpanLog* log_;
  std::uint32_t rep_;
};

struct SimRep {
  double setup_s = 0.0;
  double run_s = 0.0;    ///< host s of the timed phase, reference units excluded
  double run_ref = 0.0;  ///< run_s over the mean reference unit's host s
  std::uint64_t checksum = 0;
  // Simulated results (identical across reps of a seed).
  std::size_t pairs = 0;
  std::size_t undelivered = 0;
  DelayStats delay;
  bool sample_matches_tracker = false;
  double redundancy = 0.0;
  double ctrl_bytes_per_node_s = 0.0;
  double frame_delivered_frac = 0.0;
  // Deterministic cost counters.
  Metrics counters;
  // Traced reps only.
  bool traced = false;
  HandlerLedger ledger;
};

/// The deployment is fixed: one synthetic King matrix (the paper uses one
/// measured King data set), one System seed, which fixes the initial views,
/// bootstrap links, tree root and protocol random streams, and one set of
/// crash victims. --seed generates the traffic run on it: the multicast
/// sources. (With the System seed varying, the tree root's site alone moved
/// the stream workload's median delay by +-20% from seed to seed; with the
/// victims varying, whether the crash hits the top of the tree moved the
/// recovery workload's median delay from 247 to 342 ms.)
constexpr std::uint64_t kDeploymentSeed = 1;

/// Builds the deployment (latency matrix included, so set-up time counts
/// generating it). The caller installs hooks and starts it.
std::unique_ptr<core::System> build_system(const SimSpec& spec) {
  net::SyntheticKingParams king;
  king.threads = 1;
  core::SystemConfig config;
  config.node_count = spec.nodes;
  config.seed = kDeploymentSeed;
  config.latency = std::shared_ptr<const net::LatencyModel>(
      net::make_synthetic_king(king, Rng(kDeploymentSeed).fork("king")));
  config.node.overlay.target_rand_degree = 1;
  config.node.overlay.target_near_degree = 5;
  config.node.dissemination.payload_bytes = 1024;
  config.bootstrap_links_per_node =
      static_cast<std::size_t>(config.node.overlay.target_degree() / 2);
  return std::make_unique<core::System>(config);
}

/// One set-up sample without a run: build and start, then tear down.
double sim_setup_only(const SimSpec& spec) {
  const auto start = Clock::now();
  auto system = build_system(spec);
  system->start();
  return seconds_between(start, Clock::now());
}

SimRep run_sim_rep(const SimSpec& spec, std::uint64_t seed, bool traced,
                   SpanLog& log, std::uint32_t rep_index,
                   ReferenceKernel& reference) {
  SimRep rep;
  rep.traced = traced;
  const auto setup_start = Clock::now();
  auto system = build_system(spec);

  // The tracker is the reference for delivery; the benchmark keeps its own
  // (node, delay) log because the tracker does not expose its raw sample.
  analysis::DeliveryTracker tracker(spec.nodes);
  std::array<std::uint64_t, 3> by_path{};  // local, tree, pull
  std::vector<std::pair<NodeId, double>> delay_log;
  bool recording = false;
  auto on_delivery = [&](const core::DeliveryEvent& event) {
    tracker.on_delivery(event);
    if (!recording) return;
    ++by_path[static_cast<std::size_t>(event.path)];
    delay_log.emplace_back(event.node,
                           (event.deliver_time - event.inject_time) * 1e3);
  };
  HandlerLedger& ledger = rep.ledger;
  if (traced) {
    system->set_delivery_hook([&](const core::DeliveryEvent& event) {
      const auto start = Clock::now();
      on_delivery(event);
      const double spent = seconds_between(start, Clock::now());
      ledger.hook_seconds += spent;
      // Tree and pull deliveries run inside the data handler's span.
      if (event.path != core::DeliveryPath::kLocal) {
        ledger.nested_hook_seconds += spent;
      }
    });
  } else {
    system->set_delivery_hook(on_delivery);
  }
  std::vector<std::unique_ptr<TracingEndpoint>> wrappers;
  if (traced) {
    wrappers.reserve(spec.nodes);
    for (NodeId id = 0; id < spec.nodes; ++id) {
      wrappers.push_back(std::make_unique<TracingEndpoint>(
          &system->node(id), &ledger, &log, rep_index));
      system->network().set_endpoint(id, wrappers.back().get());
    }
  }
  system->start();
  const auto run_start = Clock::now();
  rep.setup_s = seconds_between(setup_start, run_start);

  // The timed phase runs in slices of 50 simulated ms; after a slice, a
  // reference unit runs if 25 host ms have passed since the last one.
  double reference_s = reference.run_unit();
  int reference_units = 1;
  auto last_reference = Clock::now();
  auto advance = [&](SimTime target) {
    while (system->now() < target) {
      system->run_until(std::min(target, system->now() + 0.05));
      if (seconds_between(last_reference, Clock::now()) >= 0.025) {
        reference_s += reference.run_unit();
        ++reference_units;
        last_reference = Clock::now();
      }
    }
  };
  advance(system->now() + spec.warmup);
  if (spec.crash_fraction > 0.0) {
    std::vector<NodeId> victims = system->alive_nodes();
    Rng(kDeploymentSeed).fork("crash").shuffle(victims);
    victims.resize(static_cast<std::size_t>(
        static_cast<double>(victims.size()) * spec.crash_fraction + 0.5));
    for (NodeId id : victims) system->node(id).kill();
  }
  tracker.set_recording(true);
  recording = true;
  const SimTime inject_start = system->now();
  std::vector<sim::Engine::BatchEvent> inject;
  inject.reserve(spec.messages);
  core::System* sys = system.get();
  Rng sources = Rng(seed).fork("sources");
  for (std::size_t i = 0; i < spec.messages; ++i) {
    NodeId source;
    do {
      source = static_cast<NodeId>(sources.next_below(spec.nodes));
    } while (!system->network().alive(source));
    inject.push_back({inject_start + static_cast<double>(i) / spec.rate,
                      [sys, source] { sys->node(source).multicast(); }});
  }
  system->schedule_control_batch(inject);
  const SimTime end = inject_start +
                      static_cast<double>(spec.messages) / spec.rate +
                      spec.drain;
  advance(end);
  rep.run_s = seconds_between(run_start, Clock::now()) - reference_s;
  rep.run_ref = rep.run_s / (reference_s / reference_units);

  // -- results --
  const std::vector<NodeId> alive = system->alive_nodes();
  const analysis::DeliveryTracker::Report report = tracker.report(alive);
  rep.pairs = alive.size() * tracker.message_count();
  rep.undelivered = report.undelivered_pairs;
  std::uint64_t deliveries = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t pulls = 0;
  std::uint64_t exhausted = 0;
  for (NodeId id : alive) {
    const auto& node = system->node(id);
    deliveries += node.deliveries_count();
    duplicates += node.duplicates_count();
    pulls += node.dissemination().pulls_sent();
    exhausted += node.dissemination().pull_retries_exhausted();
  }
  rep.redundancy = deliveries > 0 ? static_cast<double>(deliveries + duplicates) /
                                        static_cast<double>(deliveries)
                                  : 0.0;

  const net::TrafficStats& traffic = system->network().traffic();
  const double node_seconds = static_cast<double>(spec.nodes) * end;
  const auto& data = traffic.kind(net::MsgKind::kData);
  rep.ctrl_bytes_per_node_s =
      static_cast<double>(traffic.total_sent().bytes - data.bytes) /
      node_seconds;
  const std::uint64_t frames = traffic.total_sent().messages;
  rep.frame_delivered_frac =
      frames > 0 ? static_cast<double>(traffic.delivered()) /
                       static_cast<double>(frames)
                 : 0.0;

  Metrics& c = rep.counters;
  for (std::size_t k = 0; k < net::kMsgKindCount; ++k) {
    const auto kind = static_cast<net::MsgKind>(k);
    if (kind == net::MsgKind::kOther) continue;
    const std::string name = net::msg_kind_name(kind);
    c["net.msgs_per_node_s." + name] = {
        static_cast<double>(traffic.kind(kind).messages) / node_seconds, "1/s"};
    c["net.bytes_per_node_s." + name] = {
        static_cast<double>(traffic.kind(kind).bytes) / node_seconds, "B/s"};
  }
  const std::uint64_t events = system->events_processed();
  c["sim.events"] = {static_cast<double>(events), "count"};
  c["sim.events_per_delivery"] = {
      deliveries > 0 ? static_cast<double>(events) /
                           static_cast<double>(deliveries)
                     : 0.0,
      "ratio"};
  const auto pool = system->network().pool_counters();
  c["net.pool_reuse_ratio"] = {
      pool.reused + pool.fresh > 0
          ? static_cast<double>(pool.reused) /
                static_cast<double>(pool.reused + pool.fresh)
          : 0.0,
      "ratio"};
  const double remote = static_cast<double>(by_path[1] + by_path[2]);
  c["tree.delivery_share"] = {
      remote > 0 ? static_cast<double>(by_path[1]) / remote : 0.0, "ratio"};
  c["gocast.pull_share"] = {
      remote > 0 ? static_cast<double>(by_path[2]) / remote : 0.0, "ratio"};
  c["gocast.pulls_sent"] = {static_cast<double>(pulls), "count"};
  c["gocast.pull_retries_exhausted"] = {static_cast<double>(exhausted),
                                        "count"};
  const core::System::MemoryReport mem = system->memory_report();
  const double n = static_cast<double>(spec.nodes);
  c["sim.engine_bytes"] = {static_cast<double>(mem.engine_bytes) / n, "B"};
  c["net.network_bytes"] = {static_cast<double>(mem.network_bytes) / n, "B"};
  c["gocast.node_object_bytes"] = {
      static_cast<double>(mem.node_object_bytes) / n, "B"};
  c["membership.view_bytes"] = {
      static_cast<double>(mem.view_bytes + mem.landmark_store_bytes) / n, "B"};
  c["gocast.dissemination_bytes"] = {
      static_cast<double>(mem.dissemination_bytes) / n, "B"};
  c["overlay.bytes"] = {static_cast<double>(mem.overlay_bytes) / n, "B"};
  c["tree.bytes"] = {static_cast<double>(mem.tree_bytes) / n, "B"};

  // Delay sample over delivered (live node, message) pairs, in simulated ms.
  std::vector<bool> is_alive(spec.nodes, false);
  for (NodeId id : alive) is_alive[id] = true;
  std::vector<double> sample;
  sample.reserve(delay_log.size());
  for (const auto& [node, delay_ms] : delay_log) {
    if (is_alive[node]) sample.push_back(delay_ms);
  }
  rep.sample_matches_tracker = sample.size() == rep.pairs - rep.undelivered;
  rep.delay = delay_stats(sample.data(), sample.size());

  std::uint64_t h = fnv(kFnvBasis, tracker.checksum());
  h = fnv(h, events);
  h = fnv(h, traffic.total_sent().messages);
  h = fnv(h, traffic.total_sent().bytes);
  h = fnv(h, deliveries);
  h = fnv(h, duplicates);
  h = fnv(h, alive.size());
  rep.checksum = h;
  return rep;
}

// ---------------------------------------------------------------------------
// Wire and runtime layers, measured at the end of every traced run: two
// UdpRuntimes on one thread on loopback, node 1 sending to node 2 through
// encode -> sendto -> recvfrom -> decode -> endpoint, with a closed loop of
// kUdpWindow frames in flight, then a codec-only pass over the same frames.
// Their host times swing between regimes on a shared VM (README.md), too far
// for a bound, so they are reported per layer only.

constexpr NodeId kSender = 1;
constexpr NodeId kReceiver = 2;
constexpr std::size_t kUdpWindow = 32;
constexpr std::size_t kUdpFramesPerPhase = 25000;
constexpr std::size_t kUdpDistinctFrames = 4096;
constexpr int kUdpReps = 8;
constexpr double kUdpStallSeconds = 2.0;  ///< no progress -> frames lost

net::PeerDegrees degrees_from(Rng& rng) {
  net::PeerDegrees d;
  d.rand_degree = static_cast<std::uint16_t>(rng.next_below(4));
  d.near_degree = static_cast<std::uint16_t>(2 + rng.next_below(6));
  d.max_nearby_rtt = static_cast<float>(0.005 + 0.1 * rng.next_unit());
  return d;
}

std::vector<membership::MemberEntry> members_from(Rng& rng, std::size_t n) {
  std::vector<membership::MemberEntry> members(n);
  for (auto& m : members) {
    m.id = static_cast<NodeId>(rng.next_below(1u << 20));
    for (auto& slot : m.landmark_rtt) {
      slot = static_cast<float>(0.2 * rng.next_unit());
    }
    m.heard_at = 0.0;
  }
  return members;
}

/// Smallest frame of the grammar: a bare Ping (header + 4-byte nonce).
std::vector<net::MessagePtr> make_min_frames(Rng& rng) {
  std::vector<net::MessagePtr> out;
  out.reserve(kUdpDistinctFrames);
  for (std::size_t i = 0; i < kUdpDistinctFrames; ++i) {
    out.push_back(std::make_shared<overlay::PingMsg>(
        static_cast<std::uint32_t>(rng.next_below(1ULL << 32))));
  }
  return out;
}

/// Seeded protocol mix: 1 KiB data (30%), gossip digests (20%), pulls
/// (10%), tree control (15%), overlay control (15%), ping/pong and
/// membership (10%). Inject and heard-at instants are 0, i.e. never in the
/// future of either runtime's clock.
std::vector<net::MessagePtr> make_mix_frames(Rng& rng) {
  std::vector<net::MessagePtr> out;
  out.reserve(kUdpDistinctFrames);
  for (std::size_t i = 0; i < kUdpDistinctFrames; ++i) {
    const net::PeerDegrees d = degrees_from(rng);
    const MsgId id{static_cast<NodeId>(rng.next_below(1u << 20)),
                   static_cast<std::uint32_t>(rng.next_below(1u << 30))};
    const std::uint64_t r = rng.next_below(100);
    if (r < 30) {
      out.push_back(std::make_shared<core::DataMsg>(id, 0.0, 1024,
                                                    rng.next_below(4) != 0, d));
    } else if (r < 50) {
      std::vector<core::DigestEntry> entries(1 + rng.next_below(8));
      for (auto& e : entries) {
        e.id = {static_cast<NodeId>(rng.next_below(1u << 20)),
                static_cast<std::uint32_t>(rng.next_below(1u << 30))};
        e.inject_time = 0.0;
      }
      out.push_back(std::make_shared<core::GossipDigestMsg>(
          entries, members_from(rng, rng.next_below(4)), d));
    } else if (r < 60) {
      std::vector<MsgId> ids(1 + rng.next_below(3), id);
      out.push_back(std::make_shared<core::PullRequestMsg>(ids, d));
    } else if (r < 75) {
      const tree::Epoch epoch{static_cast<std::uint32_t>(rng.next_below(16)),
                              static_cast<NodeId>(rng.next_below(1u << 20))};
      const std::uint64_t t = rng.next_below(3);
      if (t == 0) {
        out.push_back(std::make_shared<tree::HeartbeatMsg>(
            epoch, static_cast<std::uint32_t>(rng.next_below(1u << 20)),
            0.2 * rng.next_unit(), d));
      } else if (t == 1) {
        out.push_back(std::make_shared<tree::ChildJoinMsg>(epoch, d));
      } else {
        out.push_back(std::make_shared<tree::ChildLeaveMsg>(d));
      }
    } else if (r < 90) {
      const auto link = rng.next_below(2) == 0 ? overlay::LinkKind::kNearby
                                               : overlay::LinkKind::kRandom;
      const std::uint64_t t = rng.next_below(5);
      if (t == 0) {
        out.push_back(std::make_shared<overlay::NeighborRequestMsg>(
            link, 0.1 * rng.next_unit(), rng.next_below(2) == 0, d));
      } else if (t == 1) {
        out.push_back(std::make_shared<overlay::NeighborAcceptMsg>(
            link, 0.1 * rng.next_unit(), d));
      } else if (t == 2) {
        out.push_back(std::make_shared<overlay::NeighborRejectMsg>(link, d));
      } else if (t == 3) {
        out.push_back(std::make_shared<overlay::NeighborDropMsg>(d));
      } else {
        out.push_back(std::make_shared<overlay::LinkTransferMsg>(
            static_cast<NodeId>(rng.next_below(1u << 20)), d));
      }
    } else {
      const std::uint64_t t = rng.next_below(4);
      const auto nonce = static_cast<std::uint32_t>(rng.next_below(1ULL << 32));
      if (t == 0) {
        out.push_back(std::make_shared<overlay::PingMsg>(nonce));
      } else if (t == 1) {
        out.push_back(std::make_shared<overlay::PongMsg>(nonce, d));
      } else if (t == 2) {
        out.push_back(std::make_shared<overlay::JoinRequestMsg>());
      } else {
        out.push_back(std::make_shared<overlay::JoinReplyMsg>(
            members_from(rng, 1 + rng.next_below(8))));
      }
    }
  }
  return out;
}

/// Receiving endpoint: counts and digests the frames it is handed.
class CountingEndpoint final : public net::Endpoint {
 public:
  void handle_message(NodeId from, const net::MessagePtr& msg) override {
    ++received;
    digest = fnv(digest, from);
    digest = fnv(digest, static_cast<std::uint64_t>(msg->packet_type()));
    digest = fnv(digest, msg->wire_size());
  }

  std::size_t received = 0;
  std::uint64_t digest = kFnvBasis;
};

struct UdpPhase {
  double seconds = 0.0;
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::uint64_t wire_bytes = 0;  ///< sum of wire_size() over sent frames
  double send_s = 0.0;
  double poll_s = 0.0;
};

UdpPhase run_udp_phase(runtime::UdpRuntime& a, runtime::UdpRuntime& b,
                       const CountingEndpoint& sink,
                       const std::vector<net::MessagePtr>& frames,
                       SpanLog& log, std::uint32_t rep_index) {
  UdpPhase phase;
  const std::size_t base = sink.received;
  auto received = [&] { return sink.received - base; };
  const auto start = Clock::now();
  auto last_progress = start;
  std::size_t last_received = 0;
  while (received() < kUdpFramesPerPhase) {
    while (phase.sent < kUdpFramesPerPhase &&
           phase.sent - received() < kUdpWindow) {
      const net::MessagePtr& msg = frames[phase.sent % frames.size()];
      const auto t = Clock::now();
      a.send(kSender, kReceiver, msg);
      const auto end = Clock::now();
      phase.send_s += seconds_between(t, end);
      log.offer(rep_index, "runtime", "send", t, end);
      phase.wire_bytes += msg->wire_size();
      ++phase.sent;
    }
    const auto t = Clock::now();
    b.poll();
    const auto after = Clock::now();
    phase.poll_s += seconds_between(t, after);
    log.offer(rep_index, "runtime", "poll", t, after);
    if (received() != last_received) {
      last_received = received();
      last_progress = after;
    } else if (seconds_between(last_progress, after) > kUdpStallSeconds) {
      break;  // frames lost; the caller's checks report it
    }
  }
  phase.seconds = seconds_between(start, Clock::now());
  phase.delivered = received();
  return phase;
}

/// Codec-only pass over the frames a phase sends: encode every frame into a
/// reused buffer, then decode it. Returns {encode ns, decode ns} per frame.
std::pair<double, double> codec_pass(const std::vector<net::MessagePtr>& frames,
                                     std::uint64_t& digest,
                                     std::uint64_t& rejects, SpanLog& log,
                                     std::uint32_t rep_index) {
  auto arena = std::make_shared<net::MessageArena>();
  wire::FrameBuffer buf{net::PayloadAllocator<std::uint8_t>(arena)};
  double encode_s = 0.0;
  double decode_s = 0.0;
  for (std::size_t i = 0; i < kUdpFramesPerPhase; ++i) {
    const net::Message& msg = *frames[i % frames.size()];
    buf.clear();
    const auto t0 = Clock::now();
    const std::size_t n = wire::encode(msg, kSender, kReceiver, 0.0, buf);
    const auto t1 = Clock::now();
    wire::Decoded out;
    const wire::DecodeStatus status =
        wire::decode(buf.data(), n, arena, 0.0, out);
    const auto t2 = Clock::now();
    encode_s += seconds_between(t0, t1);
    decode_s += seconds_between(t1, t2);
    log.offer(rep_index, "wire", "encode", t0, t1);
    log.offer(rep_index, "wire", "decode", t1, t2);
    if (status != wire::DecodeStatus::kOk) {
      ++rejects;
      continue;
    }
    digest = fnv(digest, static_cast<std::uint64_t>(out.msg->packet_type()));
    digest = fnv(digest, out.msg->wire_size());
  }
  const double per = 1e9 / static_cast<double>(kUdpFramesPerPhase);
  return {encode_s * per, decode_s * per};
}

struct UdpRep {
  UdpPhase min;
  UdpPhase mix;
  std::uint64_t digest = 0;  ///< of the frame sequence the endpoint got
  std::uint64_t bytes_received = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t rejected_frames = 0;
  std::uint64_t eagain_retries = 0;
  double encode_ns_min = 0.0, decode_ns_min = 0.0;
  double encode_ns_mix = 0.0, decode_ns_mix = 0.0;
  std::uint64_t codec_digest = kFnvBasis;
  std::uint64_t codec_rejects = 0;
};

runtime::UdpConfig udp_config(NodeId self, std::uint64_t seed) {
  runtime::UdpConfig config;
  config.self = self;
  config.seed = seed;
  return config;
}

UdpRep run_udp_rep(std::uint64_t seed, SpanLog& log, std::uint32_t rep_index) {
  Rng rng = Rng(seed).fork("udp-frames");
  const std::vector<net::MessagePtr> min_frames = make_min_frames(rng);
  const std::vector<net::MessagePtr> mix_frames = make_mix_frames(rng);
  runtime::UdpRuntime a(udp_config(kSender, seed));
  runtime::UdpRuntime b(udp_config(kReceiver, seed));
  a.add_peer(kReceiver, "127.0.0.1", b.port());
  b.add_peer(kSender, "127.0.0.1", a.port());
  CountingEndpoint sink;
  b.set_endpoint(kReceiver, &sink);

  UdpRep rep;
  rep.min = run_udp_phase(a, b, sink, min_frames, log, rep_index);
  rep.mix = run_udp_phase(a, b, sink, mix_frames, log, rep_index);
  rep.digest = sink.digest;
  rep.bytes_received = b.stats().bytes_received;
  rep.datagrams_received = b.stats().datagrams_received;
  rep.rejected_frames = b.stats().rejected_frames +
                        b.stats().rejected_misaddressed +
                        b.stats().rejected_unknown_src;
  rep.eagain_retries = a.stats().eagain_retries;
  std::tie(rep.encode_ns_min, rep.decode_ns_min) = codec_pass(
      min_frames, rep.codec_digest, rep.codec_rejects, log, rep_index);
  std::tie(rep.encode_ns_mix, rep.decode_ns_mix) = codec_pass(
      mix_frames, rep.codec_digest, rep.codec_rejects, log, rep_index);
  return rep;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  std::vector<std::string> problems;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

/// get(rep) over the untraced (traced = false) or traced reps.
std::vector<double> collect(const std::vector<SimRep>& reps, bool traced,
                            double (*get)(const SimRep&)) {
  std::vector<double> out;
  for (const SimRep& r : reps) {
    if (r.traced == traced) out.push_back(get(r));
  }
  return out;
}

Outcome summarize_sim(const std::vector<SimRep>& reps,
                      std::vector<double> setups) {
  Outcome o;
  const SimRep& first = reps.front();
  for (const SimRep& r : reps) {
    o.check(r.checksum == first.checksum,
            "delivery checksum differs between reps of one seed" +
                std::string(r.traced ? " (traced rep)" : ""));
    o.check(r.sample_matches_tracker,
            "delay sample size disagrees with the delivery tracker");
    o.attempted += r.pairs;
    o.failed += r.undelivered;
  }
  o.check(first.pairs > 0, "no (node, message) pairs were tracked");
  o.check(first.undelivered == 0, "not every live node got every message");

  Metrics& m = o.end_to_end;
  for (const SimRep& r : reps) setups.push_back(r.setup_s);
  m["setup_s"] = {median(setups), "s"};
  const double run_s =
      median(collect(reps, false, +[](const SimRep& r) { return r.run_s; }));
  m["run_ref"] = {
      median(collect(reps, false, +[](const SimRep& r) { return r.run_ref; })),
      "ref"};
  m["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  m["delay_p50_ms"] = {first.delay.p50, "ms"};
  m["delay_p99_ms"] = {first.delay.p99, "ms"};
  m["delay_tail_ms"] = {first.delay.tail, "ms"};
  m["delivered_frac"] = {
      1.0 - static_cast<double>(first.undelivered) /
                static_cast<double>(std::max<std::size_t>(1, first.pairs)),
      "ratio"};
  m["redundancy"] = {first.redundancy, "ratio"};
  m["ctrl_bytes_per_node_s"] = {first.ctrl_bytes_per_node_s, "B/s"};
  m["frame_delivered_frac"] = {first.frame_delivered_frac, "ratio"};
  std::printf("delay sample: %zu delivered pairs, tail = p%.4g\n",
              first.delay.samples, first.delay.tail_percentile);
  std::printf("delivery checksum: %016llx over %zu reps\n",
              static_cast<unsigned long long>(first.checksum), reps.size());

  Metrics& l = o.per_layer;
  l = first.counters;
  std::vector<double> traced_run =
      collect(reps, true, +[](const SimRep& r) { return r.run_s; });
  if (!traced_run.empty()) {
    for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
      std::vector<double> v;
      for (const SimRep& r : reps) {
        if (!r.traced) continue;
        double self = r.ledger.seconds[layer];
        if (layer == kLayerData) self -= r.ledger.nested_hook_seconds;
        v.push_back(self);
      }
      l[kLayerMetric[layer]] = {median(v), "s"};
    }
    const SimRep& traced_rep =
        *std::find_if(reps.begin(), reps.end(),
                      [](const SimRep& r) { return r.traced; });
    for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
      std::printf("%s: %llu handler calls, %.3f s\n", kLayerMetric[layer],
                  static_cast<unsigned long long>(traced_rep.ledger.calls[layer]),
                  traced_rep.ledger.seconds[layer]);
    }
    l["analysis.hook_s"] = {
        median(collect(reps, true,
                       +[](const SimRep& r) { return r.ledger.hook_seconds; })),
        "s"};
    l["sim.residual_s"] = {
        median(collect(reps, true,
                       +[](const SimRep& r) {
                         double inside = r.ledger.hook_seconds -
                                         r.ledger.nested_hook_seconds;
                         for (double s : r.ledger.seconds) inside += s;
                         return r.run_s - inside;
                       })),
        "s"};
    l["trace.overhead_s"] = {median(traced_run) - run_s, "s"};
  }
  return o;
}

/// Folds the wire/runtime pass into a traced outcome: its checks, and its
/// per-layer metrics as medians over reps.
void summarize_udp(const std::vector<UdpRep>& reps, Outcome& o) {
  const UdpRep& first = reps.front();
  std::uint64_t eagain = 0;
  std::uint64_t rejected = 0;
  for (const UdpRep& r : reps) {
    const std::uint64_t sent = r.min.sent + r.mix.sent;
    o.check(r.digest == first.digest,
            "UDP: received frame sequence differs between reps");
    o.check(r.codec_digest == first.codec_digest,
            "UDP: codec-only pass differs between reps");
    o.check(r.codec_rejects == 0, "UDP: codec-only pass rejected frames");
    o.check(r.rejected_frames == 0, "UDP: receiver rejected frames");
    o.check(r.bytes_received == r.min.wire_bytes + r.mix.wire_bytes,
            "UDP: bytes received != sum of wire_size() over sent frames");
    o.check(r.datagrams_received == sent &&
                r.min.delivered + r.mix.delivered == sent,
            "UDP: frames lost on loopback");
    eagain += r.eagain_retries;
    rejected += r.rejected_frames;
  }
  auto med = [&](double (*get)(const UdpRep&)) {
    std::vector<double> v;
    for (const UdpRep& r : reps) v.push_back(get(r));
    return median(v);
  };
  Metrics& l = o.per_layer;
  l["wire.encode_ns_min"] = {med([](const UdpRep& r) { return r.encode_ns_min; }), "ns"};
  l["wire.decode_ns_min"] = {med([](const UdpRep& r) { return r.decode_ns_min; }), "ns"};
  l["wire.encode_ns_mix"] = {med([](const UdpRep& r) { return r.encode_ns_mix; }), "ns"};
  l["wire.decode_ns_mix"] = {med([](const UdpRep& r) { return r.decode_ns_mix; }), "ns"};
  l["runtime.send_ns"] = {
      med([](const UdpRep& r) {
        return 1e9 * (r.min.send_s + r.mix.send_s) /
               static_cast<double>(r.min.sent + r.mix.sent);
      }),
      "ns"};
  l["runtime.poll_ns_per_frame"] = {
      med([](const UdpRep& r) {
        return 1e9 * (r.min.poll_s + r.mix.poll_s) /
               static_cast<double>(r.min.delivered + r.mix.delivered);
      }),
      "ns"};
  l["runtime.frames_per_s_min"] = {
      med([](const UdpRep& r) {
        return static_cast<double>(r.min.delivered) / r.min.seconds;
      }),
      "1/s"};
  l["runtime.frames_per_s_mix"] = {
      med([](const UdpRep& r) {
        return static_cast<double>(r.mix.delivered) / r.mix.seconds;
      }),
      "1/s"};
  l["runtime.eagain_retries"] = {static_cast<double>(eagain), "count"};
  l["runtime.rejected_frames"] = {static_cast<double>(rejected), "count"};
  std::printf("wire/runtime pass: %zu reps of %zu + %zu frames, window %zu, "
              "frame digest %016llx\n",
              reps.size(), kUdpFramesPerPhase, kUdpFramesPerPhase, kUdpWindow,
              static_cast<unsigned long long>(first.digest));
}

void print_result(const Outcome& o, bool trace) {
  for (const std::string& p : o.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              o.correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  const char* sep = "";
  for (const auto& [name, metric] : trace ? o.per_layer : o.end_to_end) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Workload table.

const std::map<std::string, SimSpec>& sim_workloads() {
  static const std::map<std::string, SimSpec> table = {
      // nodes, warmup, messages, rate, drain, crash
      {"steady", {8192, 4.0, 20, 10.0, 4.0, 0.0}},
      {"stream", {1024, 60.0, 600, 100.0, 5.0, 0.0}},
      {"recovery", {1024, 60.0, 600, 100.0, 20.0, 0.1}},
  };
  return table;
}

constexpr int kExtraSetups = 4;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload steady|stream|recovery "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_path;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with "
                       "assertions enabled (NDEBUG unset)\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a non-Release build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const auto it = sim_workloads().find(workload);
  if (it == sim_workloads().end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const SimSpec& spec = it->second;
  const auto start = Clock::now();
  std::printf("workload %s, seed %llu, budget %.1f s, trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace);
  // Extra set-up-only samples, so setup_s is a median over several set-ups.
  std::vector<double> setups;
  for (int i = 0; i < kExtraSetups; ++i) setups.push_back(sim_setup_only(spec));
  // Under --trace 1 untraced and traced reps alternate; at least one of each.
  SpanLog log;
  ReferenceKernel reference;
  std::vector<SimRep> reps;
  for (std::uint32_t i = 0;
       reps.size() < 2 || seconds_between(start, Clock::now()) < seconds; ++i) {
    const bool traced = trace == 1 && i % 2 == 1;
    reps.push_back(run_sim_rep(spec, seed, traced, log, i, reference));
    std::printf("rep %u%s: setup %.3f s, run %.3f s = %.0f reference units\n",
                i, traced ? " (traced)" : "", reps.back().setup_s,
                reps.back().run_s, reps.back().run_ref);
  }
  Outcome outcome = summarize_sim(reps, std::move(setups));
  if (trace == 1) {
    std::vector<UdpRep> udp;
    for (int i = 0; i < kUdpReps; ++i) {
      udp.push_back(run_udp_rep(seed, log, static_cast<std::uint32_t>(
                                               reps.size() + i)));
    }
    summarize_udp(udp, outcome);
  }
  log.write(spans_path);
  print_result(outcome, trace == 1);
  return 0;
}
