// Path bandwidth estimation (§4.2).
//
// The Flowserver never sees ground-truth rates; it models them from (a) the
// believed per-flow shares in a NetworkView snapshot and (b) per-link
// max-min water-filling:
//
//  * the share a NEW flow would get on a path = its water-filled share on the
//    path's bottleneck link, where existing flows demand their current
//    believed bandwidth and the new flow demands infinity;
//  * the reduced share of an EXISTING flow after the new flow (now demanding
//    its bottleneck share b_j) is added = its water-filled share on the links
//    of the path it crosses (NEWBANDWIDTH in Pseudocode 2).
//
// Both terms water-fill the same per-link demand vectors (the link's flows
// in key order, then the new flow), so path_shares fetches each path link's
// flows once and water-fills it twice — once with an infinite extra demand,
// once with b_j — and reads every crossing flow's share from the second
// result. A candidate costs O(links x flows on them), not a re-fill per flow.
//
// Per the paper's "simplifying bandwidth estimations", only the candidate
// path's links are modelled; secondary effects on other paths are ignored and
// corrected by the periodic stats resync. The model is stateless apart from
// the zero-hop rate: every fact it consumes comes from the view, so all
// decisions in one batch read identical state.
#pragma once

#include <vector>

#include "net/network_view.hpp"
#include "net/paths.hpp"

namespace mayflower::flowserver {

class BandwidthModel {
 public:
  BandwidthModel() = default;

  // Eq. 2's model inputs for one candidate path.
  struct PathShares {
    // MAXMINSHARE(p.links): the new flow's estimated share (b_j).
    double new_flow_bps = 0.0;
    // Flows crossing any link of the path (flows_on_path: key order).
    std::vector<const net::NetworkView::Flow*> flows;
    // NEWBANDWIDTH(flows[i], p, b_j): flows[i]'s share once the new flow
    // joins every link of the path. Never exceeds its current share.
    std::vector<double> reduced_bps;
  };

  // MAXMINSHARE(p.links): estimated share of a new elastic flow on `path`.
  // Zero-hop paths return `zero_hop_bps`.
  double new_flow_share(const net::NetworkView& view,
                        const net::Path& path) const;

  // new_flow_share plus every crossing flow's reduced share, from one fetch
  // of each path link's flows. Zero-hop paths cross no flows.
  PathShares path_shares(const net::NetworkView& view,
                         const net::Path& path) const;

  void set_zero_hop_bps(double bps) { zero_hop_bps_ = bps; }
  double zero_hop_bps() const { return zero_hop_bps_; }

 private:
  double zero_hop_bps_ = 12e9;
};

}  // namespace mayflower::flowserver
