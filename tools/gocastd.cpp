// gocastd — live GoCast nodes on real UDP sockets.
//
// Every node is a GoCastNodeT<runtime::UdpContext>: the protocol templates
// the simulator runs, behind one non-blocking UDP socket per node
// (runtime::UdpRuntime). Two modes share one node-setup path:
//
//   In-process (default): the whole --nodes N deployment in this process.
//   Each node binds an ephemeral 127.0.0.1 port, and one thread interleaves
//   the N reactors with their non-blocking poll() slice.
//
//   Per-process (--node-id / --listen / --peers): ONE node in this process.
//   Launch N processes with the same --peers list, same --seed, and a
//   shared --epoch and they form one overlay.
//
// Either way every node derives the same deployment from the shared seed:
// full membership views, a deterministic bootstrap link set (each node
// installs the links incident to itself), the lowest node id as initial
// tree root, and --inject-at naming the (non-root) node that multicasts.
// The process exits 0 once every node it hosts has delivered every expected
// multicast (a per-process node then keeps forwarding for a short --drain so
// laggards elsewhere can still pull from it), 2 on timeout, 3 on bind/config
// errors. SIGTERM/SIGINT interrupt the reactors, drain briefly, and exit
// with the delivery status so far. Exit status 0 therefore doubles as a
// smoke test (tools/check.sh and CI run both modes).
//
// --groups G derives a deterministic multi-group subscription table from
// the shared seed (every node computes the same directory, no
// coordination), the injector round-robins its multicasts over its
// subscribed groups, and delivery is checked in every group a node
// subscribes to.
//
// In-process flags: --nodes N
// Per-process flags: --node-id I --listen HOST:PORT --peers ID@HOST:PORT,...
// Shared flags: --inject-at I --messages K --payload BYTES --warmup SECS
//               --timeout SECS --drain SECS --epoch UNIX_SECS --seed S
//               --groups G
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gocast/group_directory.h"
#include "gocast/node.h"
#include "harness/args.h"
#include "runtime/udp_runtime.h"

namespace {

using gocast::GroupId;
using gocast::MsgId;
using gocast::NodeId;
using LiveNode = gocast::core::GoCastNodeT<gocast::runtime::UdpContext>;

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop_signal(int) { g_stop = 1; }

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: epoll_wait must see EINTR promptly
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

/// Parses "HOST:PORT"; returns false on malformed input.
bool parse_hostport(const std::string& s, std::string& host,
                    std::uint16_t& port) {
  std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    return false;
  }
  host = s.substr(0, colon);
  long p = 0;
  try {
    p = std::stol(s.substr(colon + 1));
  } catch (...) {
    return false;
  }
  if (p < 1 || p > 65535) return false;
  port = static_cast<std::uint16_t>(p);
  return true;
}

/// Parses "ID@HOST:PORT,ID@HOST:PORT,..." into peer specs.
bool parse_peers(const std::string& s,
                 std::vector<gocast::runtime::UdpPeerSpec>& out) {
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    std::string item =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? s.size() : comma + 1;
    if (item.empty()) continue;
    std::size_t at = item.find('@');
    if (at == std::string::npos || at == 0) return false;
    gocast::runtime::UdpPeerSpec spec;
    try {
      spec.id = static_cast<NodeId>(std::stoul(item.substr(0, at)));
    } catch (...) {
      return false;
    }
    if (!parse_hostport(item.substr(at + 1), spec.host, spec.port)) {
      return false;
    }
    out.push_back(std::move(spec));
  }
  return !out.empty();
}

/// The deterministic bootstrap link set every node derives from the shared
/// seed: two random links per node over the sorted id list. Each node then
/// installs only the links incident to itself.
std::set<std::pair<NodeId, NodeId>> bootstrap_links(
    const std::vector<NodeId>& ids, gocast::Rng& init_rng) {
  std::set<std::pair<NodeId, NodeId>> links;
  // Attempts are capped: a small deployment can saturate (2 nodes have only
  // one possible pair), and every process must run the identical number of
  // RNG draws to stay in lockstep.
  const std::size_t max_attempts = 16 * ids.size() + 64;
  for (NodeId id : ids) {
    std::size_t made = 0;
    for (std::size_t attempt = 0; made < 2 && attempt < max_attempts;
         ++attempt) {
      NodeId other = ids[init_rng.next_below(ids.size())];
      auto key = std::minmax(id, other);
      if (other == id || links.count({key.first, key.second})) continue;
      links.insert({key.first, key.second});
      ++made;
    }
  }
  return links;
}

/// Everything about the deployment that every node derives identically
/// from the shared flags and seed, wherever it is hosted.
struct Deployment {
  std::vector<NodeId> ids;  ///< sorted, unique
  NodeId root = 0;
  NodeId inject_at = 0;
  std::uint64_t seed = 1;
  std::size_t messages = 4;
  gocast::core::GoCastConfig config;
  std::set<std::pair<NodeId, NodeId>> links;
  double start_offset = 0.0;
  std::shared_ptr<gocast::core::GroupDirectory> directory;  ///< --groups > 1
  /// Groups the injector's multicasts round-robin over.
  std::vector<GroupId> inject_groups{gocast::kDefaultGroup};
};

/// Derives the deployment over `ids`; prints the reason and returns false
/// on a configuration error.
bool plan_deployment(const gocast::harness::Args& args,
                     std::vector<NodeId> ids, Deployment& d) {
  using namespace gocast;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.size() < 2) {
    std::cerr << "gocastd: need at least 2 nodes\n";
    return false;
  }
  d.ids = std::move(ids);
  d.root = d.ids.front();
  d.inject_at = static_cast<NodeId>(
      args.get_int("inject-at", static_cast<long>(d.ids[1])));
  if (d.inject_at == d.root ||
      !std::binary_search(d.ids.begin(), d.ids.end(), d.inject_at)) {
    std::cerr << "gocastd: --inject-at must name a non-root node of the "
                 "deployment (root is "
              << d.root << ")\n";
    return false;
  }
  d.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  d.messages = args.get_count("messages", 4);

  // Protocol periods scaled for a live run: the defaults target long
  // simulated runs (15 s heartbeats), which would make a human wait.
  d.config.tree.heartbeat_period = 0.25;
  d.config.dissemination.gossip_period = 0.1;
  for (std::size_t lm = 0; lm < std::min<std::size_t>(d.ids.size(), 4);
       ++lm) {
    d.config.landmarks.push_back(d.ids[lm]);
  }

  Rng init_rng = Rng(d.seed).fork("init");
  d.links = bootstrap_links(d.ids, init_rng);
  d.start_offset = init_rng.next_range(0.0, 0.1);

  // Multi-group deployment: the directory derives from (topology, n, seed)
  // over the dense universe [0, n), so every node computes identical
  // subscriptions with zero coordination.
  const std::size_t group_count = args.get_count("groups", 1);
  if (group_count > 1) {
    for (std::size_t i = 0; i < d.ids.size(); ++i) {
      if (d.ids[i] != static_cast<NodeId>(i)) {
        std::cerr << "gocastd: --groups needs dense node ids 0.."
                  << d.ids.size() - 1 << "\n";
        return false;
      }
    }
    core::GroupTopology topology;
    topology.group_count = group_count;
    topology.min_group_size = 2;  // swarms are small; keep every group real
    d.directory = std::make_shared<core::GroupDirectory>(
        topology, d.ids.size(), d.seed);
    for (GroupId g : d.directory->groups_of(d.inject_at)) {
      d.inject_groups.push_back(g);
    }
  }
  return true;
}

/// One node hosted by this process: its socket, the protocol node, and
/// what it has delivered.
struct Hosted {
  std::unique_ptr<gocast::runtime::UdpRuntime> rt;
  std::unique_ptr<LiveNode> node;
  /// Keyed by (group, id): per-group MsgId sequences overlap, so the group
  /// is part of a delivery's identity.
  std::map<std::pair<GroupId, MsgId>, std::size_t> delivered;
};

/// The per-node set-up both modes share: builds and starts the node that
/// `h.rt` hosts, wired into the deployment `d`.
void start_node(Hosted& h, const Deployment& d) {
  using namespace gocast;
  const NodeId self = h.rt->config().self;
  h.node = std::make_unique<LiveNode>(
      self, *h.rt, d.config,
      Rng(d.seed).fork(static_cast<std::uint64_t>(self)));
  LiveNode& node = *h.node;

  std::vector<membership::MemberEntry> others;
  for (NodeId id : d.ids) {
    if (id == self) continue;
    membership::MemberEntry entry;
    entry.id = id;
    others.push_back(entry);
  }
  node.seed_view(others);
  for (const auto& [a, b] : d.links) {
    if (a == self) node.bootstrap_link(b, overlay::LinkKind::kRandom);
    if (b == self) node.bootstrap_link(a, overlay::LinkKind::kRandom);
  }
  if (self == d.root) node.become_root();

  node.set_delivery_hook([&h](const core::DeliveryEvent& e) {
    ++h.delivered[{e.group, e.id}];
  });

  if (d.directory != nullptr) {
    node.enable_multigroup(d.directory);
    for (GroupId g : d.directory->groups_of(self)) node.join_group(g);
    // Ring-bootstrap each extra group over its sorted member list (every
    // node derives the same ring and installs the links incident to
    // itself); the lowest member roots the group's tree.
    const auto group_count = static_cast<GroupId>(d.directory->group_count());
    for (GroupId g = 1; g < group_count; ++g) {
      const std::vector<NodeId>& members = d.directory->members(g);
      if (members.size() >= 2) {
        const std::size_t ring = members.size() == 2 ? 1 : members.size();
        for (std::size_t i = 0; i < ring; ++i) {
          NodeId a = members[i];
          NodeId b = members[(i + 1) % members.size()];
          if (a == self) node.bootstrap_link(b, overlay::LinkKind::kRandom);
          if (b == self) node.bootstrap_link(a, overlay::LinkKind::kRandom);
        }
      }
      if (!members.empty() && members.front() == self) node.become_root_in(g);
    }
  }
  node.start(d.start_offset);
}

/// True once `h` has delivered every multicast from the injector in every
/// group its node subscribes to (the injector included, via its own
/// delivery hook).
bool delivered_all(const Hosted& h, const Deployment& d) {
  const NodeId self = h.node->id();
  std::map<GroupId, std::size_t> expect;
  for (std::size_t k = 0; k < d.messages; ++k) {
    const GroupId g = d.inject_groups[k % d.inject_groups.size()];
    if (g == gocast::kDefaultGroup ||
        (d.directory != nullptr && d.directory->subscribed(self, g))) {
      ++expect[g];
    }
  }
  for (const auto& [g, want] : expect) {
    std::size_t seen = 0;
    for (const auto& [key, count] : h.delivered) {
      if (key.first == g && key.second.origin == d.inject_at && count > 0) {
        ++seen;
      }
    }
    if (seen < want) return false;
  }
  return true;
}

/// Runs every hosted reactor for up to `seconds` of wall time, returning
/// early once `done()` holds or a stop signal arrives. A lone runtime
/// sleeps in its own epoll reactor; several are interleaved on this thread
/// with their non-blocking poll() slice.
template <class Done>
void advance(const std::vector<std::unique_ptr<Hosted>>& hosted,
             double seconds, Done done) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  while (!g_stop && !done() && Clock::now() < deadline) {
    if (hosted.size() == 1) {
      hosted.front()->rt->run_for(0.05);
      continue;
    }
    for (const auto& h : hosted) h->rt->poll();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

int run(const gocast::harness::Args& args) {
  using namespace gocast;

  runtime::UdpConfig base;
  base.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  base.epoch_unix = args.get_double("epoch", 0.0);

  // Per-process mode hosts the --node-id node of the --peers deployment;
  // in-process mode hosts all of nodes 0..N-1 on ephemeral loopback ports.
  std::vector<runtime::UdpConfig> rt_configs;
  std::vector<NodeId> ids;
  if (args.has("node-id") || args.has("listen") || args.has("peers")) {
    runtime::UdpConfig rt_config = base;
    rt_config.self = static_cast<NodeId>(args.get_int("node-id", 0));
    std::string listen = args.get("listen", "127.0.0.1:0");
    if (!parse_hostport(listen, rt_config.listen_host,
                        rt_config.listen_port)) {
      std::cerr << "gocastd: bad --listen '" << listen << "'\n";
      return 3;
    }
    if (!parse_peers(args.get("peers", ""), rt_config.peers)) {
      std::cerr << "gocastd: per-process mode needs --peers "
                   "ID@HOST:PORT,...\n";
      return 3;
    }
    // Every process receives the same --peers (including its own entry),
    // so the derived deployment agrees.
    for (const auto& p : rt_config.peers) ids.push_back(p.id);
    ids.push_back(rt_config.self);
    rt_configs.push_back(std::move(rt_config));
  } else {
    const std::size_t n = args.get_count("nodes", 8);
    for (std::size_t i = 0; i < n; ++i) {
      runtime::UdpConfig rt_config = base;
      rt_config.self = static_cast<NodeId>(i);
      rt_configs.push_back(std::move(rt_config));
      ids.push_back(static_cast<NodeId>(i));
    }
  }

  Deployment d;
  if (!plan_deployment(args, std::move(ids), d)) return 3;
  const std::size_t payload = args.get_count("payload", 512);
  const double warmup = args.get_double("warmup", 2.0);
  const double timeout = args.get_double("timeout", 20.0);
  const double drain = args.get_double("drain", 1.0);

  std::vector<std::unique_ptr<Hosted>> hosted;
  try {
    for (auto& rt_config : rt_configs) {
      hosted.push_back(std::make_unique<Hosted>());
      hosted.back()->rt =
          std::make_unique<runtime::UdpRuntime>(std::move(rt_config));
    }
  } catch (const runtime::UdpSetupError& e) {
    std::cerr << "gocastd: " << e.what() << "\n";
    return 3;
  }
  for (const auto& a : hosted) {
    for (const auto& b : hosted) {
      if (a != b) {
        a->rt->add_peer(b->rt->config().self, b->rt->config().listen_host,
                        b->rt->port());
      }
    }
  }
  install_signal_handlers();
  for (const auto& h : hosted) {
    h->rt->watch_stop_flag(&g_stop);
    start_node(*h, d);
  }

  std::cout << "gocastd: " << d.ids.size() << "-node deployment, root "
            << d.root << ", injector " << d.inject_at << ", warming up "
            << warmup << " s...\n";
  for (const auto& h : hosted) {
    std::cout << "  node " << h->node->id() << " on "
              << h->rt->config().listen_host << ":" << h->rt->port() << "\n";
  }
  advance(hosted, warmup, [] { return false; });

  for (const auto& h : hosted) {
    if (h->node->id() != d.inject_at || g_stop) continue;
    for (std::size_t k = 0; k < d.messages; ++k) {
      const GroupId group = d.inject_groups[k % d.inject_groups.size()];
      LiveNode* node = h->node.get();
      runtime::UdpRuntime* rt = h->rt.get();
      rt->schedule_after(0.05 * static_cast<double>(k),
                         [node, rt, payload, group] {
                           MsgId id = node->multicast_in(group, payload);
                           std::cout << "  t=" << rt->now()
                                     << " s: multicast " << id.origin << ":"
                                     << id.seq << " group " << group << "\n";
                         });
    }
  }

  auto all_complete = [&] {
    return std::all_of(hosted.begin(), hosted.end(),
                       [&](const auto& h) { return delivered_all(*h, d); });
  };
  advance(hosted, timeout, all_complete);
  const bool complete = all_complete();

  // Keep forwarding briefly so nodes in other processes that are still
  // catching up can pull from ours — a process that exits the instant it
  // finishes starves the tail of the swarm.
  if (!g_stop && drain > 0.0 && hosted.size() < d.ids.size()) {
    advance(hosted, drain, [] { return false; });
  }

  for (const auto& h : hosted) {
    const auto& stats = h->rt->stats();
    std::cout << "gocastd: node " << h->node->id()
              << (g_stop ? " (interrupted)" : "") << ": delivered "
              << h->node->deliveries_count() << ", duplicates "
              << h->node->duplicates_count() << ", degree "
              << h->node->overlay().degree();
    if (d.directory != nullptr) {
      std::cout << ", groups "
                << 1 + d.directory->groups_of(h->node->id()).size();
    }
    std::cout << "  (udp: " << stats.datagrams_sent << " sent, "
              << stats.datagrams_received << " received, "
              << stats.rejected_frames << " rejected, "
              << stats.send_failures << " send failures)\n";
  }
  if (!complete) {
    std::cout << "FAILED: incomplete delivery\n";
    return 2;
  }
  std::cout << "OK: ";
  if (hosted.size() == 1) {
    std::cout << "node " << hosted.front()->node->id();
  } else {
    std::cout << "all " << hosted.size() << " nodes";
  }
  std::cout << " delivered every multicast"
            << (d.directory != nullptr ? " in every subscribed group" : "")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gocast::harness::Args args(
      argc, argv,
      {"nodes", "messages", "payload", "warmup", "seed", "node-id", "listen",
       "peers", "inject-at", "timeout", "drain", "epoch", "groups", "help"});
  if (args.get_bool("help", false)) {
    std::cout
        << "gocastd — run live GoCast nodes over UDP\n"
           "in-process:  --nodes N [8]   (all nodes on 127.0.0.1, "
           "ephemeral ports)\n"
           "per-process: --node-id I --listen HOST:PORT --peers "
           "ID@HOST:PORT,...\n"
           "shared:      --inject-at I [second-lowest id] --messages K [4]\n"
           "             --payload BYTES [512] --warmup SECS [2.0] "
           "--timeout SECS [20]\n"
           "             --drain SECS [1.0] --epoch UNIX_SECS --seed S [1] "
           "--groups G [1]\n"
           "             (--groups: deterministic multi-group subscriptions "
           "from the\n"
           "              shared seed; the injector round-robins its groups "
           "and exit\n"
           "              status covers every subscribed group)\n"
           "exit: 0 full delivery, 2 timeout/incomplete, 3 bind/config "
           "error\n";
    return 0;
  }
  return run(args);
}
