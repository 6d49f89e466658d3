#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <unordered_map>

#include "bench.hpp"
#include "common/strings.hpp"
#include "fs/cluster.hpp"

namespace perfbench {

void check_max_min(const net::FlowSim& sim, const net::Topology& topo,
                   std::vector<std::string>& errors) {
  constexpr double kRel = 1e-6;
  struct LinkLoad {
    double sum = 0.0;
    double max_rate = 0.0;
  };
  std::vector<LinkLoad> load(topo.link_count());
  std::unordered_map<net::FlowId, const net::FlowRecord*> flows;
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    for (const net::FlowRecord* f : sim.flows_on_link(l)) {
      load[l].sum += f->rate_bps;
      load[l].max_rate = std::max(load[l].max_rate, f->rate_bps);
      flows.emplace(f->id, f);
    }
  }
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    const double cap = sim.link_capacity(l);
    if (load[l].sum > cap * (1.0 + kRel)) {
      errors.push_back(strfmt("link %u carries %.9g B/s over capacity %.9g",
                              static_cast<unsigned>(l), load[l].sum, cap));
    }
  }
  for (const auto& [id, f] : flows) {
    if (f->rate_bps >= f->demand_bps * (1.0 - kRel)) continue;  // demand-bound
    bool bottlenecked = false;
    for (const net::LinkId l : f->path.links) {
      const double cap = sim.link_capacity(l);
      const bool saturated = load[l].sum >= cap * (1.0 - kRel);
      if (saturated && f->rate_bps >= load[l].max_rate * (1.0 - kRel)) {
        bottlenecked = true;
        break;
      }
    }
    if (!bottlenecked) {
      errors.push_back(strfmt("flow %llu (rate %.9g B/s) has no bottleneck link",
                              static_cast<unsigned long long>(id),
                              f->rate_bps));
    }
  }
}

void check_plan(const std::vector<policy::ReadAssignment>& plan,
                const net::Topology& topo, net::NodeId client,
                const std::vector<net::NodeId>& replicas, double bytes,
                std::vector<std::string>& errors) {
  if (plan.empty()) {
    errors.push_back("empty read plan");
    return;
  }
  double sum = 0.0;
  for (const policy::ReadAssignment& a : plan) {
    sum += a.bytes;
    if (std::find(replicas.begin(), replicas.end(), a.replica) ==
        replicas.end()) {
      errors.push_back("plan reads from a host that holds no replica");
    }
    const net::Path& p = a.path;
    bool chain = p.nodes.size() == p.links.size() + 1 &&
                 p.nodes.front() == a.replica && p.nodes.back() == client;
    for (std::size_t i = 0; chain && i < p.links.size(); ++i) {
      chain = p.links[i] < topo.link_count() &&
              topo.link(p.links[i]).from == p.nodes[i] &&
              topo.link(p.links[i]).to == p.nodes[i + 1];
    }
    if (!chain) errors.push_back("plan path is not a replica->client chain");
  }
  if (std::abs(sum - bytes) > 1e-9 * bytes) {
    errors.push_back(strfmt("plan moves %.17g bytes of %.17g", sum, bytes));
  }
}

void check_stationary(const std::vector<std::vector<double>>& runs,
                      double bound, std::vector<std::string>& errors) {
  double first = 0.0;
  double second = 0.0;
  std::size_t n = 0;
  for (const std::vector<double>& samples : runs) {
    const std::size_t half = samples.size() / 2;
    for (std::size_t i = 0; i < half; ++i) first += samples[i];
    for (std::size_t i = half; i < 2 * half; ++i) second += samples[i];
    n += half;
  }
  if (n == 0) {
    errors.push_back("too few samples for the stationarity check");
    return;
  }
  if (std::abs(second - first) > bound * first) {
    errors.push_back(strfmt("not stationary: half means %.6g vs %.6g s",
                            first / static_cast<double>(n),
                            second / static_cast<double>(n)));
  }
}

void run_measured(sim::EventQueue& events, const net::FlowSim& flows,
                  const net::Topology& topo, const RoundMode& mode,
                  std::uint64_t check_every,
                  const std::function<bool()>& keep_going, RoundResult& out) {
  Tracer* const tr = mode.tracer;
  double active_sum = 0.0;
  double active_max = 0.0;
  const std::int64_t t_run = now_ns();
  {
    Scope run(tr, SpanName::kRun);
    while (keep_going() && !events.empty()) {
      if (tr != nullptr) {
        {
          Scope s(tr, SpanName::kSimStep);
          events.step();
        }
        const double active = static_cast<double>(flows.active_flow_count());
        active_sum += active;
        active_max = std::max(active_max, active);
      } else {
        events.step();
      }
      ++out.events;
      if (mode.checks && out.events % check_every == 0) {
        check_max_min(flows, topo, out.errors);
      }
    }
  }
  out.run_s = static_cast<double>(now_ns() - t_run) * 1e-9;
  if (tr != nullptr) {
    out.layer["net.flowsim.active_flows.mean"] =
        out.events > 0 ? active_sum / static_cast<double>(out.events) : 0.0;
    out.layer["net.flowsim.active_flows.max"] = active_max;
  }
}

void program_counters(const obs::MetricsRegistry& registry,
                      const flowserver::Flowserver* server, std::size_t edges,
                      std::map<std::string, double>& layer) {
  for (const char* solve :
       {"incremental_solves", "full_solves", "handoff_solves"}) {
    const std::string name = strfmt("net.flowsim.%s", solve);
    layer[name] = static_cast<double>(registry.counter_value(name));
  }
  if (server == nullptr) return;
  const auto num = [](std::uint64_t v) { return static_cast<double>(v); };
  layer["flowserver.selections"] = num(server->selections());
  layer["flowserver.split_reads"] = num(server->split_reads());
  layer["flowserver.stats_samples"] = num(server->stats_samples());
  layer["flowserver.view_rebuilds"] = num(server->view_rebuilds());
  layer["flowserver.shard_reloads"] = num(server->shard_reloads());
  layer["flowserver.write.chains"] = num(server->write_chains());
  layer["flowserver.write.hops"] = num(server->write_hops());
  // Each stats tick sweeps the edge switches of its rotation group (all of
  // them at poll_groups 1); a cycle is poll_groups ticks.
  const std::uint64_t groups = server->config().poll_groups;
  double edge_polls = 0.0;
  for (std::uint64_t t = 0; t < server->polls(); ++t) {
    for (std::size_t i = 0; i < edges; ++i) {
      if (i % groups == t % groups) edge_polls += 1.0;
    }
  }
  layer["sdn.fabric.edge_polls"] = edge_polls;
  layer["sdn.poller.ticks"] = num(server->polls());
  layer["flowserver.polls"] = num(server->polls() / groups);
}

void client_counters(fs::Cluster& cluster, const std::set<net::NodeId>& hosts,
                     std::map<std::string, double>& layer) {
  double lookups = 0.0;
  double hits = 0.0;
  for (const net::NodeId h : hosts) {
    lookups += static_cast<double>(cluster.client_at(h).lookups_sent());
    hits += static_cast<double>(cluster.client_at(h).cache_hits());
  }
  layer["fs.client.lookups"] = lookups;
  layer["fs.client.cache_hits"] = hits;
}

double kv_bytes_on_disk(const fs::Cluster& cluster) {
  namespace sfs = std::filesystem;
  std::error_code ec;
  double total = 0.0;
  for (const auto& e : sfs::recursive_directory_iterator(
           cluster.config().nameserver.kv_dir, ec)) {
    if (e.is_regular_file(ec)) total += static_cast<double>(e.file_size(ec));
  }
  return total;
}

}  // namespace perfbench
