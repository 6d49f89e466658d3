// Shared fixture reproducing the worked example of Figure 2 (§4.2).
//
// A reader host D fetches 9 Mb from a replica source S. Two equal-length
// paths exist, via aggregation switch A ("first path") or B ("second path").
// All links are 10 Mbps unless overridden. Existing flows (remaining size
// 6 Mb each) populate the Flowserver's state table:
//
//   first path:  Es->A carries shares {2, 2, 6};  A->Ed carries {10}
//   second path: Es->B carries shares {2, 2, 4};  B->Ed carries {8}
//
// Expected costs: C1 = 9/3 + (6/3-6/6) + (6/7-6/10) = 4.257
//                 C2 = 9/3 + (6/3-6/4) + (6/7-6/8)  = 3.607
// With Es->A at 20 Mbps instead, C1 becomes 9/5 + (6/5-6/10) = 2.4 and the
// first path wins — both variants straight from the paper's prose.
//
// Units: the fixture works in Mb and Mbps directly; every quantity in the
// cost function is a ratio, so units cancel.
#pragma once

#include "flowserver/flow_state.hpp"
#include "flowserver/selector.hpp"
#include "net/paths.hpp"
#include "net/topology.hpp"

namespace mayflower::flowserver::testing {

struct Figure2 {
  net::Topology topo;
  net::NodeId S, D, Es, Ed, A, B;
  net::LinkId s_es, es_a, a_ed, ed_d, es_b, b_ed;
  FlowStateTable table;
  sdn::Cookie next_cookie = 100;

  // Cookies of the two "large" flows per path, for inspection.
  sdn::Cookie flow6 = 0, flow10 = 0, flow4 = 0, flow8 = 0;

  explicit Figure2(double cap_es_a = 10.0) {
    S = topo.add_node(net::NodeKind::kHost, "S");
    D = topo.add_node(net::NodeKind::kHost, "D");
    Es = topo.add_node(net::NodeKind::kEdgeSwitch, "Es");
    Ed = topo.add_node(net::NodeKind::kEdgeSwitch, "Ed");
    A = topo.add_node(net::NodeKind::kAggSwitch, "A");
    B = topo.add_node(net::NodeKind::kAggSwitch, "B");
    topo.add_duplex(S, Es, 10.0);
    topo.add_duplex(Es, A, cap_es_a);
    topo.add_duplex(A, Ed, 10.0);
    topo.add_duplex(Ed, D, 10.0);
    topo.add_duplex(Es, B, 10.0);
    topo.add_duplex(B, Ed, 10.0);
    s_es = topo.find_link(S, Es);
    es_a = topo.find_link(Es, A);
    a_ed = topo.find_link(A, Ed);
    ed_d = topo.find_link(Ed, D);
    es_b = topo.find_link(Es, B);
    b_ed = topo.find_link(B, Ed);

    // Existing flows: remaining 6 Mb at the quoted shares.
    add_tracked(es_a, 2.0);
    add_tracked(es_a, 2.0);
    flow6 = add_tracked(es_a, 6.0);
    flow10 = add_tracked(a_ed, 10.0);
    add_tracked(es_b, 2.0);
    add_tracked(es_b, 2.0);
    flow4 = add_tracked(es_b, 4.0);
    flow8 = add_tracked(b_ed, 8.0);
  }

  sdn::Cookie add_tracked(net::LinkId link, double bw) {
    net::Path p;
    p.links = {link};
    p.nodes = {topo.link(link).from, topo.link(link).to};
    const sdn::Cookie c = next_cookie++;
    table.add(c, std::move(p), /*size=*/6.0, /*est_bw=*/bw, sim::SimTime{});
    return c;
  }

  // A detached copy of the fixture's flow store with link sections (tests
  // take a fresh one after mutating the table directly).
  net::NetworkView view() const { return make_decision_view(topo, table); }

  net::Path path_via(net::NodeId agg) const {
    for (const net::Path& p : net::shortest_paths(topo, S, D)) {
      for (const net::NodeId n : p.nodes) {
        if (n == agg) return p;
      }
    }
    return {};
  }
};

}  // namespace mayflower::flowserver::testing
