// paper-read and fattree-read: open-loop whole-file reads under the Mayflower
// scheme, driven by the benchmark's own copy of the harness event loop so
// that spans can sit around each call into the program. The loop mirrors
// harness::run_experiment for SchemeKind::kMayflower without faults (same
// random streams, same construction and scheduling order); the checked round
// compares its completion vector with run_experiment's, element by element,
// once the round's own objects are destroyed.
#include <memory>
#include <set>
#include <utility>

#include "bench.hpp"
#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "sdn/fabric.hpp"
#include "workload/catalog.hpp"

namespace perfbench {
namespace {

// Largest relative drift allowed between the mean completion times of the
// first and second half of the measured jobs.
constexpr double kStationarityBound = 0.10;
// Sample the max-min property every this many events in the checked round.
constexpr std::uint64_t kMaxMinEvery = 997;

harness::ExperimentConfig paper_read_config(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.fabric = net::ThreeTierConfig::with_oversubscription(8.0);
  cfg.catalog.num_files = 400;
  cfg.catalog.file_bytes = 256e6;
  cfg.gen.lambda_per_server = 0.07;
  cfg.gen.zipf_skew = 1.1;
  cfg.gen.locality = workload::Locality{0.5, 0.3};
  cfg.gen.total_jobs = 5500;
  cfg.warmup_jobs = 100;
  cfg.scheme = harness::SchemeKind::kMayflower;
  cfg.seed = seed;
  return cfg;
}

harness::ExperimentConfig fattree_read_config(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.fabric_kind = harness::FabricKind::kFatTree;
  cfg.fat_tree.k = 16;
  cfg.catalog.num_files = 6400;
  cfg.catalog.file_bytes = 256e6;
  cfg.gen.lambda_per_server = 0.1;
  cfg.gen.zipf_skew = 0.5;
  cfg.gen.locality = workload::Locality{0.5, 0.3};
  cfg.gen.total_jobs = 1300;
  cfg.warmup_jobs = 100;
  cfg.scheme = harness::SchemeKind::kMayflower;
  cfg.seed = seed;
  return cfg;
}

struct JobState {
  double arrival_sec = 0.0;
  std::size_t outstanding = 0;
};

RoundResult read_round(const harness::ExperimentConfig& cfg,
                       const RoundMode& mode) {
  Tracer* const tr = mode.tracer;
  RoundResult out;
  const std::int64_t t_setup = now_ns();
  auto setup_span = std::make_unique<Scope>(tr, SpanName::kSetup);

  Rng workload_rng(splitmix64(cfg.seed ^ 0x57a99e12d0c1f00dULL));
  net::ThreeTier tree = cfg.fabric_kind == harness::FabricKind::kFatTree
                            ? net::three_tier_from_fat_tree(cfg.fat_tree)
                            : net::build_three_tier(cfg.fabric);
  std::unique_ptr<workload::Catalog> catalog;
  std::vector<workload::ReadJob> jobs;
  {
    Scope s(tr, SpanName::kGenerate);
    catalog = std::make_unique<workload::Catalog>(tree, cfg.catalog,
                                                  workload_rng);
    jobs = workload::generate_jobs(tree, *catalog, cfg.gen, workload_rng);
  }

  sim::EventQueue events;
  std::unique_ptr<sdn::SdnFabric> fabric;
  std::unique_ptr<flowserver::Flowserver> server;
  std::unique_ptr<policy::Scheme> scheme;
  obs::MetricsRegistry registry;
  std::vector<JobState> states(jobs.size());
  std::vector<double> durations(jobs.size(), -1.0);
  std::size_t jobs_done = 0;
  std::set<std::pair<net::NodeId, net::NodeId>> pairs;  // replica, client

  const auto on_plan = [&](std::uint32_t job_id, net::NodeId client,
                           std::uint32_t file,
                           std::vector<policy::ReadAssignment> plan) {
    const workload::FileMeta& meta = catalog->file(file);
    if (mode.checks) {
      check_plan(plan, tree.topo, client, meta.replicas, meta.bytes,
                 out.errors);
    }
    if (plan.empty()) {  // no faults are injected: every replica is reachable
      out.errors.push_back("empty read plan");
      return;
    }
    JobState& st = states[job_id];
    st.outstanding += plan.size() - 1;
    for (const policy::ReadAssignment& a : plan) {
      if (tr != nullptr) pairs.emplace(a.replica, client);
      Scope s(tr, SpanName::kStartFlow);
      fabric->start_flow(
          a.cookie, a.path, a.bytes, [&, job_id](sdn::Cookie cookie,
                                                  sim::SimTime) {
            {
              Scope d(tr, SpanName::kFlowDropped);
              scheme->on_flow_complete(cookie);
            }
            JobState& js = states[job_id];
            if (--js.outstanding == 0) {
              durations[job_id] = events.now().seconds() - js.arrival_sec;
              ++jobs_done;
            }
          });
    }
  };

  {
    Scope s(tr, SpanName::kPopulate);
    fabric = std::make_unique<sdn::SdnFabric>(events, tree.topo);
    if (tr != nullptr) fabric->flow_sim().set_metrics(&registry);
    server = std::make_unique<flowserver::Flowserver>(*fabric, cfg.flowserver);
    server->start();
    scheme = std::make_unique<policy::MayflowerScheme>(
        *server, harness::to_string(cfg.scheme));
    for (const workload::ReadJob& job : jobs) {
      events.schedule_at(
          sim::SimTime::from_seconds(job.arrival_sec), [&, job] {
            JobState& st = states[job.id];
            st.arrival_sec = job.arrival_sec;
            st.outstanding = 1;
            const workload::FileMeta& meta = catalog->file(job.file);
            if (tr != nullptr) {
              Scope v(tr, SpanName::kView);
              server->view();
            }
            Scope d(tr, SpanName::kDecide);
            scheme->plan_read_async(
                job.client, meta.replicas, meta.bytes,
                [&, id = job.id, client = job.client,
                 file = job.file](std::vector<policy::ReadAssignment> plan) {
                  on_plan(id, client, file, std::move(plan));
                });
          });
    }
  }
  setup_span.reset();
  out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;
  const sim::SimTime cap = sim::SimTime::from_seconds(cfg.sim_time_cap_sec);
  run_measured(
      events, fabric->flow_sim(), tree.topo, mode, kMaxMinEvery,
      [&] { return jobs_done < jobs.size() && events.now() < cap; }, out);

  out.attempted = jobs.size();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (durations[i] < 0.0) ++out.failed;
    if (jobs[i].id < cfg.warmup_jobs) continue;
    out.jct.push_back(durations[i]);
  }
  out.by_kind["read"] = out.jct;

  if (tr != nullptr) {
    auto& L = out.layer;
    program_counters(registry, server.get(), tree.edge_switches.size(), L);
    // Path enumeration cost of this run's replica->client pairs, measured
    // on a fresh cache so the program's own warm cache does not hide it.
    net::PathCache fresh(tree.topo);
    const std::int64_t t0 = now_ns();
    for (const auto& [replica, client] : pairs) fresh.get(replica, client);
    L["net.paths.enumerate_s"] = static_cast<double>(now_ns() - t0) * 1e-9;
    L["net.paths.pairs"] = static_cast<double>(pairs.size());
  }
  server->stop();
  return out;
}

// The completion vector of a read round equals harness::run_experiment's on
// the same config, element by element. Called after the round's own objects
// are gone, so the two simulations are never alive at once.
void check_against_harness(const harness::ExperimentConfig& cfg,
                           const RoundResult& r,
                           std::vector<std::string>& errors) {
  const harness::RunResult ref = harness::run_experiment(cfg);
  if (ref.completions != r.jct || ref.incomplete != r.failed) {
    errors.push_back("completion times differ from harness::run_experiment");
  }
}

// A round runs the configuration on `catalogs` independent draws (catalog,
// trace and placement from sub-seeds of `seed`) and pools them. With Zipf
// popularity a few hot files carry much of the load, so where their replicas
// land moves one draw's tail; pooling draws keeps the figures steady from
// seed to seed at the same total job count.
RoundResult pooled_round(std::uint64_t seed, std::size_t catalogs,
                         harness::ExperimentConfig (*make)(std::uint64_t),
                         const RoundMode& mode) {
  RoundResult total;
  double active_weighted = 0.0;
  std::vector<std::vector<double>> draws;
  for (std::size_t i = 0; i < catalogs; ++i) {
    const harness::ExperimentConfig cfg = make(seed * catalogs + i);
    RoundResult r = read_round(cfg, mode);
    if (mode.checks) check_against_harness(cfg, r, r.errors);
    draws.push_back(r.jct);
    total.jct.insert(total.jct.end(), r.jct.begin(), r.jct.end());
    for (auto& [kind, v] : r.by_kind) {
      auto& dst = total.by_kind[kind];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.events += r.events;
    total.setup_s += r.setup_s;
    total.run_s += r.run_s;
    total.errors.insert(total.errors.end(), r.errors.begin(), r.errors.end());
    for (const auto& [name, v] : r.layer) {
      if (name == "net.flowsim.active_flows.mean") {
        active_weighted += v * static_cast<double>(r.events);
      } else if (name == "net.flowsim.active_flows.max") {
        total.layer[name] = std::max(total.layer[name], v);
      } else {
        total.layer[name] += v;
      }
    }
  }
  check_stationary(draws, kStationarityBound, total.errors);
  if (mode.tracer != nullptr && total.events > 0) {
    total.layer["net.flowsim.active_flows.mean"] =
        active_weighted / static_cast<double>(total.events);
  }
  return total;
}

}  // namespace

RoundResult paper_read_round(std::uint64_t seed, const RoundMode& mode) {
  return pooled_round(seed, 4, paper_read_config, mode);
}

RoundResult fattree_read_round(std::uint64_t seed, const RoundMode& mode) {
  return pooled_round(seed, 2, fattree_read_config, mode);
}

}  // namespace perfbench
