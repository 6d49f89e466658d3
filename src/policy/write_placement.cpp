#include "policy/write_placement.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mayflower::policy {

const char* to_string(WritePlacementKind kind) {
  switch (kind) {
    case WritePlacementKind::kStatic: return "static";
    case WritePlacementKind::kModel: return "model";
    case WritePlacementKind::kMeasured: return "measured";
  }
  return "?";
}

std::optional<WritePlacementKind> parse_write_placement(const std::string& s) {
  if (s == "static") return WritePlacementKind::kStatic;
  if (s == "model") return WritePlacementKind::kModel;
  if (s == "measured") return WritePlacementKind::kMeasured;
  return std::nullopt;
}

units::Bps MeasuredWritePlacement::headroom(net::NodeId writer,
                                            net::NodeId candidate,
                                            const net::NetworkView& view) const {
  if (candidate == writer) return kLocalHeadroom;
  double best = 0.0;
  for (const net::Path& p : paths_->get(writer, candidate)) {
    if (!view.path_alive(p)) continue;
    double bottleneck = kLocalHeadroom.value();
    for (const net::LinkId l : p.links) {
      const double free =
          std::max(0.0, view.capacity_bps(l) - view.tx_rate_bps(l));
      bottleneck = std::min(bottleneck, free);
    }
    best = std::max(best, bottleneck);
  }
  return units::Bps{best};
}

std::vector<net::NodeId> MeasuredWritePlacement::rank(
    net::NodeId writer, const std::vector<net::NodeId>& candidates,
    const net::NetworkView& view) const {
  MAYFLOWER_ASSERT(!candidates.empty());
  std::vector<units::Bps> scores;
  scores.reserve(candidates.size());
  for (const net::NodeId candidate : candidates) {
    scores.push_back(headroom(writer, candidate, view));
  }
  return flowserver::tied_best_targets(candidates, scores);
}

}  // namespace mayflower::policy
