// File catalog with the replica placement constraints of §6.1.1:
//   * the primary replica on a uniform-randomly selected server,
//   * the second replica in the same pod as the primary but a different rack
//     (fault domains: "replicas should not be on the same rack", §3.1),
//   * the third and further replicas in other pods, on distinct racks.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "net/tree.hpp"

namespace mayflower::workload {

struct FileMeta {
  std::uint32_t id = 0;
  double bytes = 0.0;
  // replicas[0] is the primary.
  std::vector<net::NodeId> replicas;

  net::NodeId primary() const { return replicas.front(); }
};

struct CatalogConfig {
  std::size_t num_files = 400;
  double file_bytes = 256e6;   // the paper's default 256 MB block
  std::size_t replication = 3;
};

// Replica placement (the constraints above) over one fabric. Both fabric
// builders lay hosts out pod-major and rack-major, so every pod and every
// rack is one contiguous range of tree.hosts; the constructor records those
// ranges once (and checks the layout), and place() then finds the k-th
// eligible host of each draw arithmetically instead of scanning every host.
// Draws and picks are exactly those of a scan over tree.hosts in order.
class ReplicaPlacer {
 public:
  explicit ReplicaPlacer(const net::ThreeTier& tree);

  std::vector<net::NodeId> place(std::size_t replication, Rng& rng) const;

 private:
  // Positions [begin, end) in tree.hosts.
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t size() const { return end - begin; }
  };

  // Draws one host of `base` outside pod `skip_pod` (-1: none) and outside
  // every rack in `used_racks`; false (and no draw) when none is left.
  bool pick(Range base, int skip_pod, std::vector<int>& used_racks,
            std::vector<net::NodeId>& replicas, Rng& rng) const;

  const net::ThreeTier* tree_;
  std::vector<Range> pod_range_;   // by pod id
  std::vector<Range> rack_range_;  // by rack id
};

class Catalog {
 public:
  Catalog(const net::ThreeTier& tree, const CatalogConfig& config, Rng& rng);

  const FileMeta& file(std::size_t i) const {
    MAYFLOWER_ASSERT(i < files_.size());
    return files_[i];
  }
  std::size_t size() const { return files_.size(); }

  // Places one file's replicas (exposed for tests and for the FS-level
  // nameserver, which uses the same strategy). Builds a ReplicaPlacer per
  // call, O(hosts); a Catalog builds one for all its files.
  static std::vector<net::NodeId> place_replicas(const net::ThreeTier& tree,
                                                 std::size_t replication,
                                                 Rng& rng);

 private:
  std::vector<FileMeta> files_;
};

}  // namespace mayflower::workload
