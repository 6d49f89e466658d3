#include "workload/catalog.hpp"

#include <algorithm>

namespace mayflower::workload {

ReplicaPlacer::ReplicaPlacer(const net::ThreeTier& tree) : tree_(&tree) {
  // One pass over the hosts: each pod and each rack must be one contiguous
  // run of positions (a later host of an already-closed run is a layout
  // the arithmetic below cannot index).
  const auto extend = [](std::vector<Range>& ranges, int id, std::size_t i) {
    MAYFLOWER_ASSERT_MSG(id >= 0, "host without a pod or rack");
    const auto k = static_cast<std::size_t>(id);
    if (k >= ranges.size()) ranges.resize(k + 1);
    Range& r = ranges[k];
    if (r.size() == 0) {
      r = {i, i + 1};
      return;
    }
    MAYFLOWER_ASSERT_MSG(r.end == i, "hosts are not pod-major, rack-major");
    r.end = i + 1;
  };
  for (std::size_t i = 0; i < tree.hosts.size(); ++i) {
    const net::NodeId h = tree.hosts[i];
    extend(pod_range_, tree.pod_of(h), i);
    extend(rack_range_, tree.rack_of(h), i);
  }
}

bool ReplicaPlacer::pick(Range base, int skip_pod,
                         std::vector<int>& used_racks,
                         std::vector<net::NodeId>& replicas, Rng& rng) const {
  // The eligible hosts are `base` minus disjoint holes: the skipped pod and
  // every used rack inside `base` but outside that pod.
  std::vector<Range> holes;
  if (skip_pod >= 0) {
    holes.push_back(pod_range_[static_cast<std::size_t>(skip_pod)]);
  }
  for (const int rack : used_racks) {
    const Range& r = rack_range_[static_cast<std::size_t>(rack)];
    if (tree_->pod_of(tree_->hosts[r.begin]) == skip_pod) continue;
    if (r.begin >= base.begin && r.end <= base.end) holes.push_back(r);
  }
  std::sort(holes.begin(), holes.end(),
            [](const Range& a, const Range& b) { return a.begin < b.begin; });
  std::size_t pool = base.size();
  for (const Range& h : holes) pool -= h.size();
  if (pool == 0) return false;
  // The k-th eligible host in tree order: step over every hole at or before
  // the running position.
  std::size_t pos = base.begin + rng.next_below(pool);
  for (const Range& h : holes) {
    if (pos < h.begin) break;
    pos += h.size();
  }
  const net::NodeId chosen = tree_->hosts[pos];
  replicas.push_back(chosen);
  used_racks.push_back(tree_->rack_of(chosen));
  return true;
}

std::vector<net::NodeId> ReplicaPlacer::place(std::size_t replication,
                                              Rng& rng) const {
  MAYFLOWER_ASSERT(replication >= 1);
  const auto& hosts = tree_->hosts;
  std::vector<net::NodeId> replicas;
  std::vector<int> used_racks;

  // Primary: uniform over all servers.
  const net::NodeId primary = hosts[rng.next_below(hosts.size())];
  replicas.push_back(primary);
  used_racks.push_back(tree_->rack_of(primary));
  const int pod = tree_->pod_of(primary);
  const Range all{0, hosts.size()};

  // Second replica: same pod, different rack.
  if (replication >= 2) {
    const bool ok = pick(pod_range_[static_cast<std::size_t>(pod)], -1,
                         used_racks, replicas, rng);
    MAYFLOWER_ASSERT_MSG(ok, "pod too small for the second replica");
  }

  // Third and later replicas: other pods.
  while (replicas.size() < replication) {
    bool ok = pick(all, pod, used_racks, replicas, rng);
    if (!ok) {
      // Tiny fabrics: fall back to any unused rack.
      ok = pick(all, -1, used_racks, replicas, rng);
    }
    MAYFLOWER_ASSERT_MSG(ok, "not enough racks for the replication factor");
  }
  return replicas;
}

std::vector<net::NodeId> Catalog::place_replicas(const net::ThreeTier& tree,
                                                 std::size_t replication,
                                                 Rng& rng) {
  return ReplicaPlacer(tree).place(replication, rng);
}

Catalog::Catalog(const net::ThreeTier& tree, const CatalogConfig& config,
                 Rng& rng) {
  MAYFLOWER_ASSERT(config.num_files > 0);
  MAYFLOWER_ASSERT(config.file_bytes > 0.0);
  files_.reserve(config.num_files);
  const ReplicaPlacer placer(tree);
  for (std::size_t i = 0; i < config.num_files; ++i) {
    FileMeta f;
    f.id = static_cast<std::uint32_t>(i);
    f.bytes = config.file_bytes;
    f.replicas = placer.place(config.replication, rng);
    files_.push_back(std::move(f));
  }
}

}  // namespace mayflower::workload
