#include "flowserver/bandwidth_model.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "net/fair_share.hpp"

namespace mayflower::flowserver {
namespace {

// One link's water-fill input: its believed flows' shares in key order, then
// one slot for the extra (new) flow's demand.
std::vector<double> demands_with_extra(
    const std::vector<const net::NetworkView::Flow*>& flows,
    double extra_demand) {
  std::vector<double> demands;
  demands.reserve(flows.size() + 1);
  for (const net::NetworkView::Flow* f : flows) demands.push_back(f->bw_bps);
  demands.push_back(extra_demand);
  return demands;
}

}  // namespace

double BandwidthModel::new_flow_share(const net::NetworkView& view,
                                      const net::Path& path) const {
  if (path.links.empty()) return zero_hop_bps_;
  double share = net::kInfiniteDemand;
  for (const net::LinkId l : path.links) {
    const std::vector<double> shares = net::waterfill_link(
        view.capacity_bps(l),
        demands_with_extra(view.flows_on_link(l), net::kInfiniteDemand));
    share = std::min(share, shares.back());
  }
  return share;
}

BandwidthModel::PathShares BandwidthModel::path_shares(
    const net::NetworkView& view, const net::Path& path) const {
  PathShares out;
  if (path.links.empty()) {
    out.new_flow_bps = zero_hop_bps_;
    return out;
  }
  const std::size_t n = path.links.size();
  std::vector<std::vector<const net::NetworkView::Flow*>> on_link(n);
  std::vector<std::vector<double>> demands(n);
  out.new_flow_bps = net::kInfiniteDemand;
  for (std::size_t i = 0; i < n; ++i) {
    on_link[i] = view.flows_on_link(path.links[i]);
    demands[i] = demands_with_extra(on_link[i], net::kInfiniteDemand);
    out.new_flow_bps = std::min(
        out.new_flow_bps,
        net::waterfill_link(view.capacity_bps(path.links[i]), demands[i])
            .back());
  }

  out.flows = view.flows_on_path(path);
  out.reduced_bps.reserve(out.flows.size());
  for (const net::NetworkView::Flow* f : out.flows) {
    out.reduced_bps.push_back(f->bw_bps);
  }
  for (std::size_t i = 0; i < n; ++i) {
    demands[i].back() = out.new_flow_bps;
    const std::vector<double> shares =
        net::waterfill_link(view.capacity_bps(path.links[i]), demands[i]);
    // on_link[i] is a key-ordered subset of out.flows: one merge walk.
    std::size_t j = 0;
    for (std::size_t k = 0; k < on_link[i].size(); ++k) {
      while (j < out.flows.size() && out.flows[j] != on_link[i][k]) ++j;
      MAYFLOWER_ASSERT_MSG(j < out.flows.size(), "link flow not on the path");
      out.reduced_bps[j] = std::min(out.reduced_bps[j], shares[k]);
    }
  }
  return out;
}

}  // namespace mayflower::flowserver
