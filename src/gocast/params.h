// Tunable parameters of the GoCast dissemination layer (paper §2.1) and the
// aggregate per-node configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "membership/landmark_store.h"
#include "overlay/overlay_manager.h"
#include "tree/tree_manager.h"

namespace gocast::core {

struct DisseminationParams {
  /// Gossip period t: every t seconds one overlay neighbor (round-robin)
  /// receives a summary of new message IDs. 0.1 s per the paper (suggested
  /// by Bimodal Multicast).
  SimTime gossip_period = 0.1;

  /// Pull-delay threshold f: delay pulling a message discovered via gossip
  /// until it is at least f seconds old, giving the tree time to deliver it
  /// first. 0 disables the optimization. The paper recommends the 90th
  /// percentile tree delay (0.3 s for 1,024 nodes).
  SimTime pull_delay_threshold = 0.0;

  /// Waiting period b: payload is reclaimed this long after the ID was
  /// gossiped to the last neighbor (two minutes in the paper).
  SimTime gc_payload_after = 120.0;

  /// Message records (IDs) are kept a further period to suppress duplicate
  /// deliveries of stragglers.
  SimTime gc_record_after = 240.0;

  /// How often the garbage collector sweeps the store.
  SimTime gc_sweep_period = 5.0;

  /// Simulated multicast payload size in bytes (traffic accounting only).
  std::size_t payload_bytes = 1024;

  /// False for the gossip-only baselines ("proximity overlay", "random
  /// overlay"): messages then spread exclusively via neighbor gossip pulls.
  bool use_tree = true;

  /// Membership entries piggybacked per gossip (partial-view refresh).
  std::size_t piggyback_members = 3;

  /// The paper: "the gossip period t is dynamically tunable according to
  /// the message rate". When enabled, the period stretches toward
  /// gossip_period_max while no messages flow and snaps back to
  /// gossip_period the moment one arrives.
  bool adaptive_gossip = false;
  SimTime gossip_period_max = 1.0;
  double gossip_backoff = 1.5;

  /// An unanswered pull is re-issued after this (a lost pull request or a
  /// lost response would otherwise orphan the message: each neighbor
  /// advertises an ID only once).
  SimTime pull_retry_timeout = 2.0;
  /// Retries per pull before giving up and waiting for a fresh digest
  /// (exhaustions are counted — see DisseminationT::pull_retries_exhausted).
  int pull_max_attempts = 5;
  /// Each retry waits pull_retry_timeout * pull_retry_backoff^attempts, so a
  /// capped budget of retries covers an exponentially growing window instead
  /// of hammering a fixed period.
  double pull_retry_backoff = 1.5;
  /// Uniform multiplicative jitter on every retry timeout (a fraction of the
  /// backed-off timeout), de-synchronizing retry storms after a burst loss.
  double pull_retry_jitter = 0.25;
};

/// Protocol-level defenses against misbehaving neighbors (DESIGN.md §9).
/// Off by default: the undefended path is byte-identical to the paper's
/// protocol. The mechanisms are bundled, not individually switched — every
/// configuration we run uses one of the two defended bundles, and the
/// ablation ledger in DESIGN.md §9 records what each member buys.
enum class DefenseProfile : std::uint8_t {
  kOff,
  /// Per-offense evidence against free-riders and liars: per-neighbor
  /// suspicion scores (raised by pull-retry timeouts, failed audits, digest
  /// sanity offenses and parent data-silence; decayed exponentially), pull
  /// escalation to alternate advertisers, eviction with a candidate
  /// blacklist at the threshold, inbound digest sanity checks, the
  /// parent-silence watch, and a spot-check audit pull on every gossip.
  kOffense,
  /// kOffense plus the collusion and join-path defenses: clique-aware
  /// (cover) eviction, a per-advertiser cap on new view entries, and
  /// multi-source corroboration before an entry becomes an overlay
  /// candidate.
  kFull,
};

/// Everything one GoCast node needs.
struct GoCastConfig {
  overlay::OverlayParams overlay;
  tree::TreeParams tree;
  DisseminationParams dissemination;

  /// Partial-view capacity (bounded member list).
  std::size_t view_capacity = 256;

  /// Partition-heal recovery (extension; see DESIGN.md §7 and
  /// bench/ext_partition). When a node's tree root cedes to a different root
  /// — the signature of a healed partition — the node re-queues the IDs of
  /// messages younger than the payload waiting period b for one more round
  /// of gossip. Nodes on the other side of the former partition have never
  /// seen those IDs (gossip advertises an ID to each neighbor only once, and
  /// during the partition no link crossed the cut), so without
  /// re-advertisement recovery depends entirely on fresh cross-partition
  /// links happening to carry later digests. Off by default: it adds digest
  /// traffic after root changes and is not part of the paper's protocol.
  bool readvertise_on_heal = false;

  /// Defenses against adversarial neighbors (DESIGN.md §9).
  DefenseProfile defense = DefenseProfile::kOff;

  /// Multi-group digest multiplexing (DESIGN.md §10): when a node subscribes
  /// to several groups, ONE grouped gossip per period carries per-group
  /// digest sections for every group it shares with the target neighbor, so
  /// gossip message count stays O(fanout) instead of O(groups x fanout).
  /// Only consulted once enable_multigroup() is called; single-group nodes
  /// never multiplex and stay byte-identical to the pre-multigroup protocol.
  bool multiplex_gossip = true;

  /// Multi-group link keeper: how often a node checks that each subscribed
  /// extra group still has co-subscribed overlay neighbors, requesting one
  /// link per sparse group per check. Keeps every per-group subgraph
  /// connected while node-global overlay maintenance churns links.
  SimTime group_link_period = 2.0;
  /// Minimum co-subscribed neighbors per extra group before the keeper asks
  /// for more.
  std::size_t group_min_neighbors = 2;

  /// Global landmark node ids used for triangulation estimates.
  std::vector<NodeId> landmarks;

  /// Deployment-wide landmark-vector interning store shared by every node's
  /// partial view (System fills this in; null makes each node intern
  /// privately, which is correct but saves nothing).
  std::shared_ptr<membership::LandmarkStore> landmark_store;
};

}  // namespace gocast::core
