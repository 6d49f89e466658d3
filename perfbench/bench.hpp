// Shared types of the benchmark driver: what one round of a workload
// returns, and the checks every workload runs on the program's outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "flowserver/flowserver.hpp"
#include "fs/cluster.hpp"
#include "net/flow_sim.hpp"
#include "net/topology.hpp"
#include "policy/scheme.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace mayflower;

// One round: set up the workload's inputs and system from the seed, run every
// job to completion, and hand back what the system produced.
struct RoundResult {
  // Simulated completion time (s) of every measured operation, in issue
  // order, all kinds pooled — the end-to-end distribution.
  std::vector<double> jct;
  // The same samples split by kind ("read", "append", "lookup", "create",
  // "delete").
  std::map<std::string, std::vector<double>> by_kind;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;  // EventQueue::step calls in the measured phase
  double setup_s = 0.0;      // host seconds before the first measured job
  double run_s = 0.0;        // host seconds of the measured phase
  // Per-layer counters read from the program after the run (traced rounds).
  std::map<std::string, double> layer;
  // Correctness-check failures; empty when every check passed.
  std::vector<std::string> errors;
};

// What a round is asked to do besides running the workload.
struct RoundMode {
  Tracer* tracer = nullptr;  // non-null: record spans and layer counters
  bool checks = false;       // run the (untimed) correctness checks
};

RoundResult paper_read_round(std::uint64_t seed, const RoundMode& mode);
RoundResult fattree_read_round(std::uint64_t seed, const RoundMode& mode);
RoundResult fs_mixed_round(std::uint64_t seed, const RoundMode& mode);
RoundResult meta_churn_round(std::uint64_t seed, const RoundMode& mode);

// --- shared by the workloads (common.cpp) ------------------------------------

// The measured phase: steps `events` while `keep_going()` holds (and events
// remain), timing it into out.run_s and counting steps in out.events. A
// traced round wraps each step in a sim.step span and samples the active
// flow count after it; a checked round tests the max-min property every
// `check_every` steps.
void run_measured(sim::EventQueue& events, const net::FlowSim& flows,
                  const net::Topology& topo, const RoundMode& mode,
                  std::uint64_t check_every,
                  const std::function<bool()>& keep_going, RoundResult& out);

// Layer counters the program keeps: FlowSim solves (from the registry
// attached with FlowSim::set_metrics) and, when `server` is set, the
// Flowserver's selection, poll and write books. Edge-switch polls are
// derived from the poll ticks and rotation groups over `edges` switches.
void program_counters(const obs::MetricsRegistry& registry,
                      const flowserver::Flowserver* server, std::size_t edges,
                      std::map<std::string, double>& layer);

// Metadata lookups and cache hits summed over the clients on `hosts`.
void client_counters(fs::Cluster& cluster, const std::set<net::NodeId>& hosts,
                     std::map<std::string, double>& layer);

// Max-min property of the current allocation, recomputed from the flow set
// and link capacities alone: no link carries more than its capacity (1e-6
// relative), and every flow below its demand crosses a saturated link on
// which no flow gets a higher rate. Appends a message per violation.
void check_max_min(const net::FlowSim& sim, const net::Topology& topo,
                   std::vector<std::string>& errors);

// A read plan's subflow bytes sum to the requested bytes, each subflow
// reads from one of `replicas`, and each path is a chain of existing links
// from that replica to `client`.
void check_plan(const std::vector<policy::ReadAssignment>& plan,
                const net::Topology& topo, net::NodeId client,
                const std::vector<net::NodeId>& replicas, double bytes,
                std::vector<std::string>& errors);

// Appends an error unless the second halves of `runs` (each a sample vector
// in issue order), pooled, have a mean within `bound` (relative) of the
// pooled first halves'.
void check_stationary(const std::vector<std::vector<double>>& runs,
                      double bound, std::vector<std::string>& errors);

// Total bytes of `cluster`'s nameserver KV stores: every file under its
// nameserver kv_dir, which also holds the metadata shards' stores.
double kv_bytes_on_disk(const fs::Cluster& cluster);

}  // namespace perfbench
