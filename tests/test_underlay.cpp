// Tests for the AS-level underlay: BA construction, connectivity, power-law
// shape, site assignment, and shortest-path link-load accounting.
#include "net/underlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/assert.h"
#include "net/traffic_stats.h"

namespace gocast::net {
namespace {

Underlay make(std::size_t routers, std::size_t m, std::uint64_t seed = 1) {
  return Underlay::barabasi_albert(routers, m, Rng(seed));
}

TEST(Underlay, BuildsRequestedRouterCount) {
  Underlay g = make(100, 2);
  EXPECT_EQ(g.router_count(), 100u);
  // Seed clique of 3 has 3 links; 97 new routers add 2 links each.
  EXPECT_EQ(g.link_count(), 3u + 97u * 2u);
}

TEST(Underlay, IsConnected) {
  Underlay g = make(200, 2);
  std::vector<bool> seen(g.router_count(), false);
  std::deque<std::uint32_t> queue{0};
  seen[0] = true;
  std::size_t count = 0;
  while (!queue.empty()) {
    std::uint32_t u = queue.front();
    queue.pop_front();
    ++count;
    for (std::uint32_t v : g.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  EXPECT_EQ(count, g.router_count());
}

TEST(Underlay, HasPowerLawHubs) {
  // Preferential attachment must concentrate degree: the max degree should
  // far exceed the mean (that is what creates bottleneck links).
  Underlay g = make(500, 2);
  std::size_t max_degree = 0;
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < g.router_count(); ++r) {
    max_degree = std::max(max_degree, g.neighbors(r).size());
    total += g.neighbors(r).size();
  }
  double mean = static_cast<double>(total) / static_cast<double>(g.router_count());
  EXPECT_GT(static_cast<double>(max_degree), 5.0 * mean);
}

TEST(Underlay, RejectsBadParameters) {
  EXPECT_THROW(make(3, 3), AssertionError);
  EXPECT_THROW(make(10, 0), AssertionError);
}

TEST(Underlay, AssignSitesCoversAll) {
  Underlay g = make(50, 2);
  Rng rng(5);
  g.assign_sites(200, rng);
  EXPECT_EQ(g.site_count(), 200u);
  for (std::uint32_t s = 0; s < 200; ++s) {
    EXPECT_LT(g.router_of_site(s), 50u);
  }
}

TEST(Underlay, LinkLoadsRequireSiteAssignment) {
  Underlay g = make(50, 2);
  std::unordered_map<std::uint64_t, double> traffic;
  EXPECT_THROW((void)g.link_loads(traffic), AssertionError);
}

TEST(Underlay, LinkLoadsRouteAlongPaths) {
  Underlay g = make(50, 2, 3);
  Rng rng(5);
  g.assign_sites(50, rng);

  std::unordered_map<std::uint64_t, double> traffic;
  // Find two sites on different routers.
  std::uint32_t site_a = 0;
  std::uint32_t site_b = 1;
  while (g.router_of_site(site_a) == g.router_of_site(site_b)) ++site_b;
  traffic[TrafficStats::pack_pair(site_a, site_b)] = 1000.0;

  auto loads = g.link_loads(traffic);
  ASSERT_FALSE(loads.empty());
  // Every loaded link carries exactly the full 1000 bytes (single path).
  for (const auto& load : loads) {
    EXPECT_DOUBLE_EQ(load.bytes, 1000.0);
  }
  // Loads are sorted descending.
  for (std::size_t i = 1; i < loads.size(); ++i) {
    EXPECT_GE(loads[i - 1].bytes, loads[i].bytes);
  }
}

TEST(Underlay, SameRouterTrafficImposesNoStress) {
  Underlay g = make(50, 2);
  Rng rng(5);
  // 51 sites on 50 routers: by pigeonhole two sites share a router.
  constexpr std::uint32_t kSites = 51;
  g.assign_sites(kSites, rng);
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  bool found = false;
  for (std::uint32_t i = 0; i < kSites && !found; ++i) {
    for (std::uint32_t j = i + 1; j < kSites; ++j) {
      if (g.router_of_site(i) == g.router_of_site(j)) {
        a = i;
        b = j;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found) << "no co-located sites among " << kSites;
  std::unordered_map<std::uint64_t, double> traffic;
  traffic[TrafficStats::pack_pair(a, b)] = 1000.0;
  EXPECT_TRUE(g.link_loads(traffic).empty());
}

TEST(Underlay, AggregatesMultipleFlowsOnSharedLinks) {
  Underlay g = make(30, 1, 9);  // tree-like: paths share links heavily
  Rng rng(5);
  g.assign_sites(30, rng);
  std::unordered_map<std::uint64_t, double> traffic;
  for (std::uint32_t s = 1; s < 30; ++s) {
    if (g.router_of_site(0) != g.router_of_site(s)) {
      traffic[TrafficStats::pack_pair(0, s)] = 100.0;
    }
  }
  auto loads = g.link_loads(traffic);
  ASSERT_FALSE(loads.empty());
  // The hottest link near site 0's router should carry several flows.
  EXPECT_GT(loads.front().bytes, 200.0);
}

TEST(UnderlayHierarchical, BuildsConnectedRegionalGraph) {
  Underlay g = Underlay::hierarchical(120, 6, 2, Rng(4));
  EXPECT_EQ(g.router_count(), 120u);
  EXPECT_EQ(g.region_count(), 6u);
  // Connected across regions (backbone ring + chords).
  std::vector<bool> seen(g.router_count(), false);
  std::deque<std::uint32_t> queue{0};
  seen[0] = true;
  std::size_t count = 0;
  while (!queue.empty()) {
    std::uint32_t u = queue.front();
    queue.pop_front();
    ++count;
    for (std::uint32_t v : g.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  EXPECT_EQ(count, g.router_count());
  // Every region is populated.
  std::vector<int> per_region(6, 0);
  for (std::uint32_t r = 0; r < g.router_count(); ++r) {
    ++per_region[g.region_of_router(r)];
  }
  for (int c : per_region) EXPECT_GE(c, 10);
}

TEST(UnderlayHierarchical, LatencyAssignmentGroupsNearbySites) {
  // Sites on a ring: latency-adjacent sites must land in the same region
  // far more often than random assignment would (1/regions).
  Underlay g = Underlay::hierarchical(120, 6, 2, Rng(5));
  RingLatencyModel latency(120, 0.1);
  Rng rng(6);
  g.assign_sites_by_latency(latency, rng);

  std::size_t same_region = 0;
  for (std::uint32_t s = 0; s + 1 < 120; ++s) {
    if (g.region_of_router(g.router_of_site(s)) ==
        g.region_of_router(g.router_of_site(s + 1))) {
      ++same_region;
    }
  }
  EXPECT_GT(same_region, 80u);  // random would give ~20
}

TEST(UnderlayHierarchical, FlatGraphRejectsLatencyAssignment) {
  Underlay g = Underlay::barabasi_albert(50, 2, Rng(7));
  RingLatencyModel latency(50, 0.1);
  Rng rng(8);
  EXPECT_THROW(g.assign_sites_by_latency(latency, rng), AssertionError);
}

TEST(UnderlayHierarchical, CrossRegionTrafficUsesBackbone) {
  Underlay g = Underlay::hierarchical(120, 6, 2, Rng(9));
  RingLatencyModel latency(120, 0.1);
  Rng rng(10);
  g.assign_sites_by_latency(latency, rng);

  // Find two sites in different regions and route traffic between them.
  std::uint32_t a = 0;
  std::uint32_t b = 1;
  while (g.region_of_router(g.router_of_site(a)) ==
         g.region_of_router(g.router_of_site(b))) {
    ++b;
    ASSERT_LT(b, 120u);
  }
  std::unordered_map<std::uint64_t, double> traffic;
  traffic[TrafficStats::pack_pair(a, b)] = 100.0;
  auto loads = g.link_loads(traffic);
  ASSERT_FALSE(loads.empty());
  // At least one loaded link must join two regions (a backbone hop).
  bool crosses = false;
  for (const auto& load : loads) {
    if (g.region_of_router(load.router_a) != g.region_of_router(load.router_b)) {
      crosses = true;
    }
  }
  EXPECT_TRUE(crosses);
}

TEST(UnderlayHierarchical, RegionalPeeringAddsLinksBetweenCloseRegions) {
  Underlay g = Underlay::hierarchical(120, 6, 2, Rng(11));
  RingLatencyModel latency(120, 0.1);
  Rng rng(12);
  g.assign_sites_by_latency(latency, rng);
  std::size_t before = g.link_count();
  g.add_regional_peering(latency, 8, rng);
  EXPECT_GT(g.link_count(), before);
}

TEST(UnderlayHierarchical, PeeringRequiresAssignedSites) {
  Underlay g = Underlay::hierarchical(120, 6, 2, Rng(13));
  RingLatencyModel latency(120, 0.1);
  Rng rng(14);
  EXPECT_THROW(g.add_regional_peering(latency, 8, rng), AssertionError);
}

TEST(Underlay, DeterministicPerSeed) {
  Underlay a = make(60, 2, 11);
  Underlay b = make(60, 2, 11);
  for (std::uint32_t r = 0; r < 60; ++r) {
    EXPECT_EQ(a.neighbors(r), b.neighbors(r));
  }
}

TEST(Underlay, MeanRouterDistanceIsSmall) {
  // BA graphs are small-world: mean distance should be a few hops.
  Underlay g = make(200, 2);
  double mean = g.mean_router_distance();
  EXPECT_GT(mean, 1.0);
  EXPECT_LT(mean, 8.0);
}

}  // namespace
}  // namespace gocast::net
