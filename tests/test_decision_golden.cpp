// Decision transcripts of the seeded mayflower_sim configurations, replayed
// against the committed goldens (tests/golden.hpp) at decision_threads 1
// and 8:
//
//   fig4: mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7
//   fig6: mayflower_sim --jobs=160 --warmup=20 --files=60 --seeds=11
//         --lambda=4.0
//
// The run loop is a copy of harness::run_experiment for the Mayflower scheme
// without faults (same random streams, same construction and scheduling
// order) that records every plan as it is delivered; each test also checks
// that the loop's completion vector equals run_experiment's, so the
// transcript is the one the CLI's run actually makes.
//
// The trace golden pins what the decision transcripts do not: the fig4 run's
// flow trace (every finished flow record), decision audits (including the
// table's frozen-flow and freeze-suppression counts) and poll-time belief
// errors, recorded from harness::run_experiment with an observability hub.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "golden.hpp"
#include "harness/experiment.hpp"
#include "obs/observability.hpp"
#include "sdn/fabric.hpp"
#include "workload/catalog.hpp"

namespace mayflower {
namespace {

// mayflower_sim's defaults with the flags above applied.
harness::ExperimentConfig sim_config(std::size_t jobs, double lambda,
                                     std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::SchemeKind::kMayflower;
  cfg.fabric = net::ThreeTierConfig::with_oversubscription(8.0);
  cfg.gen.lambda_per_server = lambda;
  cfg.gen.total_jobs = jobs;
  cfg.warmup_jobs = 20;
  cfg.catalog.num_files = 60;
  cfg.catalog.file_bytes = 256e6;
  cfg.flowserver.poll_interval = sim::SimTime::from_seconds(1.0);
  cfg.seed = seed;
  return cfg;
}

struct Run {
  std::string transcript;
  std::vector<double> completions;  // measured jobs, job order
};

Run run_recorded(harness::ExperimentConfig cfg, std::size_t threads) {
  cfg.flowserver.decision_threads = threads;
  Rng workload_rng(splitmix64(cfg.seed ^ 0x57a99e12d0c1f00dULL));
  net::ThreeTier tree = net::build_three_tier(cfg.fabric);
  workload::Catalog catalog(tree, cfg.catalog, workload_rng);
  const std::vector<workload::ReadJob> jobs =
      workload::generate_jobs(tree, catalog, cfg.gen, workload_rng);

  sim::EventQueue events;
  sdn::SdnFabric fabric(events, tree.topo);
  flowserver::Flowserver server(fabric, cfg.flowserver);
  server.start();

  std::ostringstream out;
  std::vector<double> arrival(jobs.size(), 0.0);
  std::vector<std::size_t> outstanding(jobs.size(), 0);
  std::vector<double> durations(jobs.size(), -1.0);
  std::size_t jobs_done = 0;
  for (const workload::ReadJob& job : jobs) {
    events.schedule_at(sim::SimTime::from_seconds(job.arrival_sec), [&, job] {
      arrival[job.id] = job.arrival_sec;
      outstanding[job.id] = 1;
      const workload::FileMeta& file = catalog.file(job.file);
      server.enqueue_read(
          job.client, file.replicas, file.bytes,
          [&, id = job.id](std::vector<flowserver::ReadAssignment> plan) {
            golden::append_plan(out, "job " + std::to_string(id), plan);
            ASSERT_FALSE(plan.empty());
            outstanding[id] += plan.size() - 1;
            for (const flowserver::ReadAssignment& a : plan) {
              fabric.start_flow(a.cookie, a.path, a.bytes,
                                [&, id](sdn::Cookie cookie, sim::SimTime) {
                                  server.flow_dropped(cookie);
                                  if (--outstanding[id] == 0) {
                                    durations[id] =
                                        events.now().seconds() - arrival[id];
                                    ++jobs_done;
                                  }
                                });
            }
          });
    });
  }
  const sim::SimTime cap = sim::SimTime::from_seconds(cfg.sim_time_cap_sec);
  while (jobs_done < jobs.size() && !events.empty() && events.now() < cap) {
    events.step();
  }
  server.stop();
  out << "selections=" << server.selections()
      << " splits=" << server.split_reads() << " done=" << jobs_done << "\n";

  Run run;
  run.transcript = out.str();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].id >= cfg.warmup_jobs) run.completions.push_back(durations[i]);
  }
  return run;
}

void expect_replays(const harness::ExperimentConfig& cfg,
                    const std::string& golden_name) {
  for (const std::size_t threads : {1u, 8u}) {
    const Run run = run_recorded(cfg, threads);
    EXPECT_TRUE(golden::matches_golden(golden_name, run.transcript))
        << "decision_threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(run.completions, harness::run_experiment(cfg).completions)
          << "the recorded loop drifted from harness::run_experiment";
    }
  }
}

// Every FlowTracer record of one traced run, doubles in hexfloat.
std::string trace_transcript(harness::ExperimentConfig cfg,
                             std::size_t threads) {
  obs::Observability hub;
  cfg.obs = &hub;
  cfg.flowserver.decision_threads = threads;
  (void)harness::run_experiment(cfg);
  std::ostringstream out;
  out << std::hexfloat;
  for (const obs::FlowTraceRecord& f : hub.trace.finished()) {
    out << "flow cookie=" << f.cookie << " planned_bw=" << f.planned_bw_bps
        << " planned_bytes=" << f.planned_bytes << " start=" << f.start_sec
        << " end=" << f.end_sec << " realized=" << f.realized_bw_bps
        << " moved=" << f.moved_bytes << " resizes=" << f.resizes
        << " reroutes=" << f.reroutes << " freeze_hits=" << f.freeze_hits
        << " setbw_bumps=" << f.setbw_bumps << " split=" << f.split
        << " killed=" << f.killed << " started=" << f.started << "\n";
  }
  for (const obs::DecisionAudit& d : hub.trace.decisions()) {
    out << "decision t=" << d.time_sec << " candidates=" << d.candidates
        << " own=" << d.own_time_sec << " impact=" << d.impact_sec
        << " frozen=" << d.frozen_flows
        << " suppressed=" << d.freeze_suppressed << " split=" << d.split
        << "\n";
  }
  for (const double e : hub.trace.belief_errors()) {
    out << "belief " << e << "\n";
  }
  return out.str();
}

TEST(DecisionGolden, Fig4ConfigReplaysAtOneAndEightThreads) {
  expect_replays(sim_config(220, 0.07, 7), "decisions_fig4_seed7.txt");
}

TEST(DecisionGolden, Fig6ConfigReplaysAtOneAndEightThreads) {
  expect_replays(sim_config(160, 4.0, 11), "decisions_fig6_seed11.txt");
}

TEST(TraceGolden, Fig4ConfigReplaysAtOneAndEightThreads) {
  for (const std::size_t threads : {1u, 8u}) {
    EXPECT_TRUE(golden::matches_golden(
        "trace_fig4_seed7.txt", trace_transcript(sim_config(220, 0.07, 7),
                                                 threads)))
        << "decision_threads=" << threads;
  }
}

}  // namespace
}  // namespace mayflower
