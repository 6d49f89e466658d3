#include "net/paths.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "common/rng.hpp"
#include "figure2_fixture.hpp"
#include "net/ecmp.hpp"
#include "net/fat_tree.hpp"
#include "net/tree.hpp"

namespace mayflower::net {
namespace {

// Reference enumerator: forward BFS distance labels from src (cut at
// dist(dst)), then a DFS over out_links that follows every edge tightening
// that label. It visits every node of src's BFS ball up to dist(dst), most
// of which never reach dst; shortest_paths must return exactly its output.
void reference_extend(const Topology& topo, const std::vector<int>& dist,
                      NodeId dst, Path& partial, std::vector<Path>& out) {
  const NodeId u = partial.nodes.back();
  if (u == dst) {
    out.push_back(partial);
    return;
  }
  for (const LinkId l : topo.out_links(u)) {
    const NodeId v = topo.link(l).to;
    if (dist[v] != dist[u] + 1) continue;
    partial.links.push_back(l);
    partial.nodes.push_back(v);
    reference_extend(topo, dist, dst, partial, out);
    partial.links.pop_back();
    partial.nodes.pop_back();
  }
}

std::vector<Path> reference_shortest_paths(const Topology& topo, NodeId src,
                                           NodeId dst) {
  std::vector<Path> out;
  if (src == dst) {
    Path p;
    p.nodes.push_back(src);
    out.push_back(std::move(p));
    return out;
  }
  std::vector<int> dist(topo.node_count(), -1);
  dist[src] = 0;
  std::deque<NodeId> queue{src};
  int limit = -1;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (limit >= 0 && dist[u] >= limit) break;
    for (const LinkId l : topo.out_links(u)) {
      const NodeId v = topo.link(l).to;
      if (dist[v] >= 0) continue;
      dist[v] = dist[u] + 1;
      if (v == dst) limit = dist[v];
      queue.push_back(v);
    }
  }
  if (dist[dst] < 0) return out;
  Path partial;
  partial.nodes.push_back(src);
  reference_extend(topo, dist, dst, partial, out);
  return out;
}

// Asserts shortest_paths == the reference (same links and nodes, same
// order) for every ordered pair drawn from `nodes`, src == dst included.
// Returns the number of paths compared.
std::size_t expect_matches_reference(const Topology& topo,
                                     const std::vector<NodeId>& nodes) {
  std::size_t compared = 0;
  for (const NodeId src : nodes) {
    for (const NodeId dst : nodes) {
      const std::vector<Path> got = shortest_paths(topo, src, dst);
      const std::vector<Path> want = reference_shortest_paths(topo, src, dst);
      EXPECT_EQ(got.size(), want.size()) << src << "->" << dst;
      if (got.size() != want.size()) return compared;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].links, want[i].links) << src << "->" << dst;
        EXPECT_EQ(got[i].nodes, want[i].nodes) << src << "->" << dst;
      }
      compared += got.size();
    }
  }
  return compared;
}

class TreePaths : public ::testing::Test {
 protected:
  TreePaths() : tree_(build_three_tier(ThreeTierConfig{})) {}
  ThreeTier tree_;
};

TEST_F(TreePaths, SameRackHasOneTwoLinkPath) {
  const auto paths =
      shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[1]);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 2u);
  EXPECT_EQ(paths[0].nodes.front(), tree_.hosts[0]);
  EXPECT_EQ(paths[0].nodes.back(), tree_.hosts[1]);
}

TEST_F(TreePaths, SamePodHasTwoFourLinkPaths) {
  const auto paths =
      shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[4]);
  ASSERT_EQ(paths.size(), 2u);  // one per aggregation switch
  for (const Path& p : paths) {
    EXPECT_EQ(p.length(), 4u);
  }
}

TEST_F(TreePaths, CrossPodHasEightSixLinkPaths) {
  // 2 src aggs x 2 cores x 2 dst aggs = 8 distinct shortest paths.
  const auto paths =
      shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[16]);
  ASSERT_EQ(paths.size(), 8u);
  std::set<std::vector<LinkId>> distinct;
  for (const Path& p : paths) {
    EXPECT_EQ(p.length(), 6u);
    distinct.insert(p.links);
  }
  EXPECT_EQ(distinct.size(), 8u);
}

TEST_F(TreePaths, PathLinksAreConsistentWithNodes) {
  const auto paths =
      shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[16]);
  for (const Path& p : paths) {
    ASSERT_EQ(p.nodes.size(), p.links.size() + 1);
    for (std::size_t i = 0; i < p.links.size(); ++i) {
      EXPECT_EQ(tree_.topo.link(p.links[i]).from, p.nodes[i]);
      EXPECT_EQ(tree_.topo.link(p.links[i]).to, p.nodes[i + 1]);
    }
  }
}

TEST_F(TreePaths, SelfPathIsZeroLength) {
  const auto paths =
      shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[0]);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 0u);
}

TEST(Paths, UnreachableReturnsEmpty) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kHost, "b");
  const NodeId s = t.add_node(NodeKind::kEdgeSwitch, "s");
  t.add_link(a, s, 1.0);
  t.add_link(s, b, 1.0);
  EXPECT_EQ(shortest_paths(t, a, b).size(), 1u);
  EXPECT_TRUE(shortest_paths(t, b, a).empty());  // directed: no way back
}

TEST(Paths, OnlyShortestLengthIsEnumerated) {
  // Diamond with an extra longer detour: a->s1->b (2 links) and
  // a->s2->s3->b (3 links). Only the 2-link path must be returned.
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kHost, "b");
  const NodeId s1 = t.add_node(NodeKind::kEdgeSwitch, "s1");
  const NodeId s2 = t.add_node(NodeKind::kEdgeSwitch, "s2");
  const NodeId s3 = t.add_node(NodeKind::kEdgeSwitch, "s3");
  t.add_link(a, s1, 1.0);
  t.add_link(s1, b, 1.0);
  t.add_link(a, s2, 1.0);
  t.add_link(s2, s3, 1.0);
  t.add_link(s3, b, 1.0);
  const auto paths = shortest_paths(t, a, b);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 2u);
}

TEST(Paths, ContainsLink) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId s = t.add_node(NodeKind::kEdgeSwitch, "s");
  const NodeId b = t.add_node(NodeKind::kHost, "b");
  const LinkId l1 = t.add_link(a, s, 1.0);
  const LinkId l2 = t.add_link(s, b, 1.0);
  const auto paths = shortest_paths(t, a, b);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths[0].contains_link(l1));
  EXPECT_TRUE(paths[0].contains_link(l2));
  EXPECT_FALSE(paths[0].contains_link(kInvalidLink));
}

TEST_F(TreePaths, CacheReturnsSameResults) {
  PathCache cache(tree_.topo);
  const auto& first = cache.get(tree_.hosts[0], tree_.hosts[16]);
  const auto& second = cache.get(tree_.hosts[0], tree_.hosts[16]);
  EXPECT_EQ(&first, &second);  // memoized
  EXPECT_EQ(first.size(), 8u);
}

TEST_F(TreePaths, EcmpIsDeterministicPerNonce) {
  PathCache cache(tree_.topo);
  const auto& paths = cache.get(tree_.hosts[0], tree_.hosts[16]);
  const EcmpHasher ecmp(0);
  const std::size_t i1 =
      ecmp.choose_index(paths.size(), tree_.hosts[0], tree_.hosts[16], 77);
  const std::size_t i2 =
      ecmp.choose_index(paths.size(), tree_.hosts[0], tree_.hosts[16], 77);
  EXPECT_EQ(i1, i2);
}

TEST_F(TreePaths, EcmpSpreadsAcrossPaths) {
  PathCache cache(tree_.topo);
  const auto& paths = cache.get(tree_.hosts[0], tree_.hosts[16]);
  const EcmpHasher ecmp(0);
  std::vector<int> counts(paths.size(), 0);
  constexpr int kFlows = 8000;
  for (int nonce = 0; nonce < kFlows; ++nonce) {
    ++counts[ecmp.choose_index(paths.size(), tree_.hosts[0], tree_.hosts[16],
                               static_cast<std::uint64_t>(nonce))];
  }
  const double expected = kFlows / static_cast<double>(paths.size());
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.15);
  }
}

TEST_F(TreePaths, MatchesForwardReferenceOnEveryHostPair) {
  EXPECT_GT(expect_matches_reference(tree_.topo, tree_.hosts), 0u);
}

TEST(Paths, MatchesForwardReferenceOnFatTrees) {
  for (const std::uint32_t k : {4u, 8u}) {
    FatTreeConfig cfg;
    cfg.k = k;
    const FatTree t = build_fat_tree(cfg);
    // Inter-pod pairs have (k/2)^2 paths; k=8 has 128 hosts.
    EXPECT_GT(expect_matches_reference(t.topo, t.hosts), t.hosts.size())
        << "k=" << k;
  }
}

TEST(Paths, MatchesForwardReferenceOnFigure2) {
  const flowserver::testing::Figure2 fig;
  std::vector<NodeId> all;
  for (NodeId n = 0; n < fig.topo.node_count(); ++n) all.push_back(n);
  EXPECT_GT(expect_matches_reference(fig.topo, all), 0u);
  EXPECT_EQ(shortest_paths(fig.topo, fig.S, fig.D).size(), 2u);
}

TEST(Paths, MatchesForwardReferenceOnRandomTopologies) {
  // Sparse random directed graphs: some pairs unreachable, every node paired
  // with itself too. Topology rejects duplicate directed links, so parallel
  // routes are bundles of relay nodes a->m_i->b: equal-length paths that
  // differ only in one hop, the case where DFS order decides output order.
  std::size_t compared = 0;
  std::size_t unreachable = 0;
  std::size_t bundles = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Topology t;
    const auto n = static_cast<NodeId>(rng.uniform_int(2, 14));
    for (NodeId i = 0; i < n; ++i) {
      t.add_node(NodeKind::kEdgeSwitch, "n" + std::to_string(i));
    }
    const std::int64_t edges = rng.uniform_int(0, 3 * n);
    for (std::int64_t e = 0; e < edges; ++e) {
      const auto a = static_cast<NodeId>(rng.next_below(n));
      const auto b = static_cast<NodeId>(rng.next_below(n));
      if (a == b || t.find_link(a, b) != kInvalidLink) continue;
      if (!rng.bernoulli(0.25)) {
        t.add_link(a, b, 1.0);
        continue;
      }
      const std::int64_t width = rng.uniform_int(2, 3);
      for (std::int64_t w = 0; w < width; ++w) {
        const NodeId m = t.add_node(NodeKind::kAggSwitch, "m");
        t.add_link(a, m, 1.0);
        t.add_link(m, b, 1.0);
      }
      ++bundles;
    }
    std::vector<NodeId> all;
    for (NodeId i = 0; i < t.node_count(); ++i) all.push_back(i);
    compared += expect_matches_reference(t, all);
    for (const NodeId a : all) {
      for (const NodeId b : all) {
        if (shortest_paths(t, a, b).empty()) ++unreachable;
      }
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(unreachable, 0u);
  EXPECT_GT(bundles, 0u);
}

}  // namespace
}  // namespace mayflower::net
