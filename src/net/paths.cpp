#include "net/paths.hpp"

#include <algorithm>

namespace mayflower::net {
namespace {

// DFS over out_links that only steps u->v when v is one hop closer to dst,
// so every branch it takes ends at dst: the visit count is the size of the
// output, not of the source's BFS ball.
void extend_paths(const Topology& topo, const std::vector<int>& to_dst,
                  Path& partial, std::vector<Path>& out) {
  const NodeId u = partial.nodes.back();
  if (to_dst[u] == 0) {
    out.push_back(partial);
    return;
  }
  for (const LinkId l : topo.out_links(u)) {
    const NodeId v = topo.link(l).to;
    if (to_dst[v] != to_dst[u] - 1) continue;  // not on a shortest path
    partial.links.push_back(l);
    partial.nodes.push_back(v);
    extend_paths(topo, to_dst, partial, out);
    partial.links.pop_back();
    partial.nodes.pop_back();
  }
}

}  // namespace

bool Path::contains_link(LinkId l) const {
  return std::find(links.begin(), links.end(), l) != links.end();
}

std::vector<Path> shortest_paths(const Topology& topo, NodeId src, NodeId dst) {
  MAYFLOWER_ASSERT(src < topo.node_count() && dst < topo.node_count());
  std::vector<Path> out;
  if (src == dst) {
    Path p;
    p.nodes.push_back(src);
    out.push_back(std::move(p));
    return out;
  }
  // Reverse BFS from dst over in_links: to_dst[v] = hops from v to dst. It
  // stops once src is labelled, when every node closer to dst than src is
  // labelled too; nodes left at -1 never satisfy the DFS's step test.
  std::vector<int> to_dst(topo.node_count(), -1);
  to_dst[dst] = 0;
  std::vector<NodeId> queue{dst};
  for (std::size_t head = 0; head < queue.size() && to_dst[src] < 0; ++head) {
    const NodeId v = queue[head];
    for (const LinkId l : topo.in_links(v)) {
      const NodeId u = topo.link(l).from;
      if (to_dst[u] >= 0) continue;
      to_dst[u] = to_dst[v] + 1;
      if (u == src) break;
      queue.push_back(u);
    }
  }
  if (to_dst[src] < 0) return out;  // unreachable

  Path partial;
  partial.nodes.push_back(src);
  extend_paths(topo, to_dst, partial, out);
  return out;
}

const std::vector<Path>& PathCache::get(NodeId src, NodeId dst) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  common::MutexLock lock(mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, shortest_paths(*topo_, src, dst)).first;
  }
  return it->second;
}

}  // namespace mayflower::net
