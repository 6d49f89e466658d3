#include "flowserver/bandwidth_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/rng.hpp"
#include "figure2_fixture.hpp"
#include "net/fair_share.hpp"
#include "net/tree.hpp"

namespace mayflower::flowserver {
namespace {

using testing::Figure2;

// path_shares' reduced share for `cookie`, or nullopt when the flow crosses
// no link of the path.
std::optional<double> reduced_of(const BandwidthModel::PathShares& shares,
                                 sdn::Cookie cookie) {
  for (std::size_t i = 0; i < shares.flows.size(); ++i) {
    if (shares.flows[i]->key == cookie) return shares.reduced_bps[i];
  }
  return std::nullopt;
}

TEST(BandwidthModel, NewFlowShareOnEmptyPathIsLocalRate) {
  Figure2 fig;
  BandwidthModel model;
  model.set_zero_hop_bps(42.0);
  net::Path p;
  p.nodes = {fig.S};
  EXPECT_DOUBLE_EQ(model.new_flow_share(fig.view(), p), 42.0);
}

TEST(BandwidthModel, NewFlowShareIsBottleneckShare) {
  Figure2 fig;
  BandwidthModel model;
  const net::NetworkView view = fig.view();
  // First path: S->Es free (10), Es->A water-fills to 3, A->Ed to 5,
  // Ed->D free (10). Bottleneck: 3.
  EXPECT_NEAR(model.new_flow_share(view, fig.path_via(fig.A)), 3.0, 1e-9);
  // Second path is also 3 (Es->B bottleneck).
  EXPECT_NEAR(model.new_flow_share(view, fig.path_via(fig.B)), 3.0, 1e-9);
}

TEST(BandwidthModel, NewFlowShareOnIdlePathIsLinkCapacity) {
  Figure2 fig;
  FlowStateTable empty;
  BandwidthModel model;
  const net::NetworkView view = make_decision_view(fig.topo, empty);
  EXPECT_NEAR(model.new_flow_share(view, fig.path_via(fig.A)), 10.0, 1e-9);
}

TEST(BandwidthModel, ReducedShareMatchesPaperNumbers) {
  Figure2 fig;
  BandwidthModel model;
  const net::NetworkView view = fig.view();
  const BandwidthModel::PathShares shares =
      model.path_shares(view, fig.path_via(fig.A));
  EXPECT_NEAR(shares.new_flow_bps, 3.0, 1e-9);

  // Flow with share 6 on Es->A drops to 3 when the new flow (demand 3) joins.
  ASSERT_TRUE(reduced_of(shares, fig.flow6).has_value());
  EXPECT_NEAR(*reduced_of(shares, fig.flow6), 3.0, 1e-9);

  // Flow with share 10 on A->Ed drops to 7.
  ASSERT_TRUE(reduced_of(shares, fig.flow10).has_value());
  EXPECT_NEAR(*reduced_of(shares, fig.flow10), 7.0, 1e-9);
}

TEST(BandwidthModel, ReducedShareSecondPath) {
  Figure2 fig;
  BandwidthModel model;
  const net::NetworkView view = fig.view();
  const BandwidthModel::PathShares shares =
      model.path_shares(view, fig.path_via(fig.B));
  ASSERT_TRUE(reduced_of(shares, fig.flow4).has_value());
  EXPECT_NEAR(*reduced_of(shares, fig.flow4), 3.0, 1e-9);
  ASSERT_TRUE(reduced_of(shares, fig.flow8).has_value());
  EXPECT_NEAR(*reduced_of(shares, fig.flow8), 7.0, 1e-9);
}

TEST(BandwidthModel, FlowOffThePathIsUntouched) {
  Figure2 fig;
  BandwidthModel model;
  const net::NetworkView view = fig.view();
  // flow8 lives on the second path; adding load to the first path cannot
  // reduce it under the paper's simplified (path-local) model, so it is not
  // among the first path's crossing flows at all.
  const BandwidthModel::PathShares shares =
      model.path_shares(view, fig.path_via(fig.A));
  EXPECT_FALSE(reduced_of(shares, fig.flow8).has_value());
  EXPECT_EQ(shares.flows.size(), 4u);  // {2, 2, 6} on Es->A, {10} on A->Ed
  EXPECT_DOUBLE_EQ(view.find(fig.flow8)->bw_bps, 8.0);
}

TEST(BandwidthModel, ReducedShareNeverExceedsCurrent) {
  // Even when the link has spare capacity, the model never *raises* an
  // existing flow (it only answers "how much would this drop").
  Figure2 fig(/*cap_es_a=*/20.0);
  BandwidthModel model;
  const net::NetworkView view = fig.view();
  const BandwidthModel::PathShares shares =
      model.path_shares(view, fig.path_via(fig.A));
  // Es->A at 20: demands {2,2,6} + new 5 fit; f6 keeps 6.
  EXPECT_NEAR(shares.new_flow_bps, 5.0, 1e-9);
  ASSERT_TRUE(reduced_of(shares, fig.flow6).has_value());
  EXPECT_NEAR(*reduced_of(shares, fig.flow6), 6.0, 1e-9);
  for (std::size_t i = 0; i < shares.flows.size(); ++i) {
    EXPECT_LE(shares.reduced_bps[i], shares.flows[i]->bw_bps);
  }
}

TEST(BandwidthModel, ZeroHopPathCrossesNoFlows) {
  Figure2 fig;
  BandwidthModel model;
  model.set_zero_hop_bps(42.0);
  net::Path p;
  p.nodes = {fig.S};
  const BandwidthModel::PathShares shares = model.path_shares(fig.view(), p);
  EXPECT_DOUBLE_EQ(shares.new_flow_bps, 42.0);
  EXPECT_TRUE(shares.flows.empty());
  EXPECT_TRUE(shares.reduced_bps.empty());
}

TEST(BandwidthModel, WiderLinkRaisesNewFlowShare) {
  Figure2 fig(/*cap_es_a=*/20.0);
  BandwidthModel model;
  // Es->A now yields 10 to an elastic newcomer; A->Ed still limits to 5.
  EXPECT_NEAR(model.new_flow_share(fig.view(), fig.path_via(fig.A)), 5.0,
              1e-9);
}

// --- per-flow reference -------------------------------------------------
//
// Test-only copy of the per-flow Eq. 2 model path_shares replaced: each
// crossing flow re-water-fills every path link it shares, each time
// rebuilding that link's demand vector (its flows in key order, then the
// new flow). path_shares must give bit-identical shares, costs and bumps.

double reference_link_share(const net::NetworkView& view, net::LinkId link,
                            double extra_demand,
                            const net::NetworkView::Flow* report,
                            double* report_share) {
  const auto flows = view.flows_on_link(link);
  std::vector<double> demands;
  std::size_t report_index = flows.size();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    demands.push_back(flows[i]->bw_bps);
    if (report != nullptr && flows[i]->key == report->key) report_index = i;
  }
  demands.push_back(extra_demand);
  const std::vector<double> shares =
      net::waterfill_link(view.capacity_bps(link), demands);
  if (report_share != nullptr) {
    *report_share = report_index < flows.size() ? shares[report_index] : -1.0;
  }
  return shares.back();
}

double reference_new_flow_share(const net::NetworkView& view,
                                const net::Path& path, double zero_hop_bps) {
  if (path.links.empty()) return zero_hop_bps;
  double share = net::kInfiniteDemand;
  for (const net::LinkId l : path.links) {
    share = std::min(share, reference_link_share(view, l, net::kInfiniteDemand,
                                                 nullptr, nullptr));
  }
  return share;
}

double reference_reduced_share(const net::NetworkView& view,
                               const net::NetworkView::Flow& f,
                               const net::Path& path, double new_flow_bps) {
  double share = f.bw_bps;
  for (const net::LinkId l : path.links) {
    if (!f.path.contains_link(l)) continue;
    double f_share = -1.0;
    reference_link_share(view, l, new_flow_bps, &f, &f_share);
    if (f_share >= 0.0) share = std::min(share, f_share);
  }
  return share;
}

Candidate reference_evaluate(const net::NetworkView& view,
                             const net::Path& path, double request_bytes,
                             double zero_hop_bps) {
  Candidate c;
  c.path = path;
  c.est_bw_bps = reference_new_flow_share(view, path, zero_hop_bps);
  c.cost.own_time = request_bytes / c.est_bw_bps;
  for (const net::NetworkView::Flow* f : view.flows_on_path(path)) {
    const double cur = f->bw_bps;
    const double reduced =
        reference_reduced_share(view, *f, path, c.est_bw_bps);
    if (reduced < cur) {
      const double r = f->remaining_bytes;
      c.cost.impact += r / reduced - r / cur;
      c.bumped.emplace_back(f->key, reduced);
    }
  }
  c.cost.total = c.cost.own_time + c.cost.impact;
  return c;
}

TEST(BandwidthModel, PathSharesMatchPerFlowReferenceOnRandomViews) {
  // The paper tree under hundreds of believed flows at random shares (some
  // above their links' capacity), then a stream of selections, each
  // committed into the view so later candidates see water-filled shares
  // and ties. Every candidate path is costed both ways.
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  const auto pick_host = [&](Rng& rng) {
    return tree.hosts[rng.next_below(tree.hosts.size())];
  };
  std::size_t candidates = 0;
  std::size_t bumps = 0;
  for (const std::uint64_t seed : {7u, 101u, 4242u}) {
    Rng rng(seed);
    FlowStateTable table;
    sdn::Cookie cookie = 1;
    for (int i = 0; i < 300; ++i) {
      const net::NodeId src = pick_host(rng);
      const net::NodeId dst = pick_host(rng);
      if (src == dst) continue;
      const std::vector<net::Path> paths =
          net::shortest_paths(tree.topo, src, dst);
      table.add(cookie++, paths[rng.next_below(paths.size())],
                rng.uniform(1e6, 5e8), rng.uniform(1e5, 1.3e8),
                sim::SimTime{});
    }
    net::NetworkView view = make_decision_view(tree.topo, table);
    BandwidthModel model;
    for (int q = 0; q < 150; ++q) {
      const net::NodeId src = pick_host(rng);
      const net::NodeId client = pick_host(rng);
      const double bytes = rng.uniform(1e6, 2e8);
      std::optional<Candidate> best;
      for (const net::Path& p : net::shortest_paths(tree.topo, src, client)) {
        const Candidate got = evaluate_path(model, view, src, p, bytes);
        const Candidate want =
            reference_evaluate(view, p, bytes, model.zero_hop_bps());
        EXPECT_EQ(got.est_bw_bps, want.est_bw_bps);
        EXPECT_EQ(got.est_bw_bps, model.new_flow_share(view, p));
        EXPECT_EQ(got.bumped, want.bumped);
        EXPECT_EQ(got.cost.own_time, want.cost.own_time);
        EXPECT_EQ(got.cost.impact, want.cost.impact);
        EXPECT_EQ(got.cost.total, want.cost.total);
        ++candidates;
        bumps += got.bumped.size();
        if (!best.has_value() || got.cost.total < best->cost.total) {
          best = got;
        }
      }
      ASSERT_TRUE(best.has_value());
      apply_candidate(view, *best, cookie++, bytes);
    }
  }
  EXPECT_GT(candidates, 1000u);
  EXPECT_GT(bumps, 1000u);
}

}  // namespace
}  // namespace mayflower::flowserver
