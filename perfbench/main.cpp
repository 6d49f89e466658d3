// Benchmark driver: runs one workload for a fixed wall-time budget and prints
// one JSON result line (see README.md).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans-out <file>]
//
// Every run starts with a checked round: the workload runs once with its
// correctness checks on (their cost is not timed). Timed rounds then repeat
// the same workload, seed and inputs until the budget is spent; each must
// reproduce the checked round's simulated results exactly. With --trace 0
// the driver reports the end-to-end metrics; with --trace 1 it alternates an
// untraced and a traced round, checks that both reproduce the checked round,
// and reports the per-layer split derived from the traced rounds' spans.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "common/stats.hpp"

namespace perfbench {
namespace {

using RoundFn = RoundResult (*)(std::uint64_t, const RoundMode&);

struct WorkloadDef {
  const char* name;
  RoundFn round;
};

const WorkloadDef kWorkloads[] = {
    {"paper-read", paper_read_round},
    {"fattree-read", fattree_read_round},
    {"fs-mixed", fs_mixed_round},
    {"meta-churn", meta_churn_round},
};

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},       {"jobs_per_host_s", "1/s"}, {"peak_rss_mb", "MB"},
    {"jct_mean_s", "s"},    {"jct_p95_s", "s"},         {"jct_p99_s", "s"},
};

const Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.step.self_s", "s"},
    {"sim.host_ns_per_event", "ns"},
    {"net.flowsim.active_flows.mean", "count"},
    {"net.flowsim.active_flows.max", "count"},
    {"net.flowsim.incremental_solves", "count"},
    {"net.flowsim.full_solves", "count"},
    {"net.flowsim.handoff_solves", "count"},
    {"net.paths.pairs", "count"},
    {"net.paths.enumerate_s", "s"},
    {"sdn.start_flow.calls", "count"},
    {"sdn.start_flow_s", "s"},
    {"sdn.fabric.edge_polls", "count"},
    {"sdn.poller.ticks", "count"},
    {"flowserver.decide.calls", "count"},
    {"flowserver.decide_s", "s"},
    {"flowserver.decide_us.p50", "us"},
    {"flowserver.decide_us.p99", "us"},
    {"flowserver.view_refresh_s", "s"},
    {"flowserver.view_rebuilds", "count"},
    {"flowserver.shard_reloads", "count"},
    {"flowserver.flow_dropped_s", "s"},
    {"flowserver.selections", "count"},
    {"flowserver.split_reads", "count"},
    {"flowserver.polls", "count"},
    {"flowserver.stats_samples", "count"},
    {"flowserver.write.chains", "count"},
    {"flowserver.write.hops", "count"},
    {"fs.ds.chain_appends", "count"},
    {"fs.ds.relay_failed", "count"},
    {"fs.client.call_s", "s"},
    {"fs.client.lookups", "count"},
    {"fs.client.cache_hits", "count"},
    {"fs.meta.map_fetches", "count"},
    {"fs.meta.wrong_shard_retries", "count"},
    {"fs.kv.bytes_per_op", "B"},
    {"workload.generate_s", "s"},
    {"harness.populate_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"host.reference_pass_s", "s"},
    {"host.setup_wall_s", "s"},
    {"host.jobs_per_wall_s", "1/s"},
    {"read_jct_mean_s", "s"},
    {"read_jct_p50_s", "s"},
    {"read_jct_p95_s", "s"},
    {"read_jct_p99_s", "s"},
    {"append_jct_mean_s", "s"},
    {"append_jct_p50_s", "s"},
    {"append_jct_p99_s", "s"},
    {"lookup_latency_p50_ms", "ms"},
    {"lookup_latency_p99_ms", "ms"},
    {"create_latency_p50_ms", "ms"},
    {"create_latency_p99_ms", "ms"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// One reference pass on the host the reference figures in README.md were
// measured on (4-vCPU Intel Xeon virtual machine, g++ 12.2, -O3), median
// over many runs. It fixes the scale of the host figures, not their ratios.
constexpr double kReferencePassS = 0.009;

// Host speed right now: the median time of five passes of a fixed reference
// workload, hash map inserts and lookups, a sort and a binary heap over about
// 2 MB, the kinds of work the simulator does. A first, untimed pass touches
// the memory, so page faults do not time it; the memory is freed before the
// next round, so it does not count in the round's peak RSS. The code is the
// benchmark's own, so a change to the program never moves it; only the
// host's speed does (CPU frequency, neighbours on shared cores and caches).
class Reference {
 public:
  Reference() : values_(kN) { map_.reserve(kN); }

  double seconds() {
    pass();
    double t[5];
    for (double& ti : t) ti = pass();
    std::sort(std::begin(t), std::end(t));
    return t[2];
  }

 private:
  static constexpr std::size_t kN = 1u << 15;

  double pass() {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    map_.clear();
    for (std::size_t i = 0; i < kN; ++i) map_[next() % (4 * kN)] = i;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < 2 * kN; ++i) {
      const auto it = map_.find(next() % (4 * kN));
      if (it != map_.end()) sum += it->second;
    }
    for (double& d : values_) d = static_cast<double>(next() >> 11);
    std::sort(values_.begin(), values_.end());
    heap_.clear();
    for (std::size_t i = 0; i < kN; ++i) {
      heap_.push_back(values_[(i * 7919) % kN]);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      if (heap_.size() > 1024) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        sum += static_cast<std::uint64_t>(heap_.back());
        heap_.pop_back();
      }
    }
    sink_ = sum;
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::vector<double> values_;
  std::vector<double> heap_;
  volatile std::uint64_t sink_ = 0;
};

// Simulated outputs two rounds of the same seed must agree on exactly.
bool same_simulation(const RoundResult& a, const RoundResult& b) {
  return a.jct == b.jct && a.by_kind == b.by_kind &&
         a.attempted == b.attempted && a.failed == b.failed &&
         a.events == b.events;
}

// Per-layer metrics of one traced round: span aggregates plus the counters
// the round read from the program.
std::map<std::string, double> layer_metrics(const Tracer& tracer,
                                            const RoundResult& r) {
  std::map<std::string, double> m = r.layer;
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::int64_t> self = tracer.self_ns();
  constexpr auto kNames = static_cast<std::size_t>(SpanName::kCount);
  double total[kNames] = {};
  double self_sum[kNames] = {};
  double count[kNames] = {};
  std::vector<double> decide_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto k = static_cast<std::size_t>(spans[i].name);
    total[k] += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    self_sum[k] += static_cast<double>(self[i]) * 1e-9;
    count[k] += 1.0;
    if (spans[i].name == SpanName::kDecide) {
      decide_us.push_back(static_cast<double>(self[i]) * 1e-3);
    }
  }
  const auto at = [](SpanName n) { return static_cast<std::size_t>(n); };
  const std::size_t step = at(SpanName::kSimStep);
  m["sim.events"] = count[step];
  m["sim.step.self_s"] = self_sum[step];
  m["sim.host_ns_per_event"] =
      count[step] > 0 ? total[step] / count[step] * 1e9 : 0.0;
  m["sdn.start_flow.calls"] = count[at(SpanName::kStartFlow)];
  m["sdn.start_flow_s"] = total[at(SpanName::kStartFlow)];
  m["flowserver.decide.calls"] = count[at(SpanName::kDecide)];
  m["flowserver.decide_s"] = self_sum[at(SpanName::kDecide)];
  if (!decide_us.empty()) {
    std::sort(decide_us.begin(), decide_us.end());
    m["flowserver.decide_us.p50"] = percentile_sorted(decide_us, 0.50);
    m["flowserver.decide_us.p99"] = percentile_sorted(decide_us, 0.99);
  }
  m["flowserver.view_refresh_s"] = total[at(SpanName::kView)];
  m["flowserver.flow_dropped_s"] = total[at(SpanName::kFlowDropped)];
  m["fs.client.call_s"] = total[at(SpanName::kClientCall)];
  m["workload.generate_s"] = total[at(SpanName::kGenerate)];
  m["harness.populate_s"] = total[at(SpanName::kPopulate)];
  return m;
}

// Simulated per-kind figures of the checked round (identical in every round).
void kind_metrics(const RoundResult& ref, std::map<std::string, double>& m) {
  const auto summary = [&](const char* kind) {
    const auto it = ref.by_kind.find(kind);
    return it == ref.by_kind.end() || it->second.empty()
               ? Summary{}
               : summarize(it->second);
  };
  const Summary read = summary("read");
  m["read_jct_mean_s"] = read.mean;
  m["read_jct_p50_s"] = read.p50;
  m["read_jct_p95_s"] = read.p95;
  m["read_jct_p99_s"] = read.p99;
  const Summary append = summary("append");
  m["append_jct_mean_s"] = append.mean;
  m["append_jct_p50_s"] = append.p50;
  m["append_jct_p99_s"] = append.p99;
  const Summary lookup = summary("lookup");
  m["lookup_latency_p50_ms"] = lookup.p50 * 1e3;
  m["lookup_latency_p99_ms"] = lookup.p99 * 1e3;
  const Summary create = summary("create");
  m["create_latency_p50_ms"] = create.p50 * 1e3;
  m["create_latency_p99_ms"] = create.p99 * 1e3;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metric* defs, std::size_t n,
                  const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void report_errors(const char* what, const RoundResult& r, bool& correct) {
  for (std::size_t i = 0; i < r.errors.size() && i < 10; ++i) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, r.errors[i].c_str());
  }
  if (!r.errors.empty()) correct = false;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "<paper-read|fattree-read|fs-mixed|meta-churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n");
  return 2;
}

int run(int argc, char** argv) {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (std::strcmp(w.name, val) == 0) workload = &w;
      }
    } else if (key == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage();
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0') return usage();
    } else if (key == "--trace") {
      trace = static_cast<int>(std::strtol(val, &end, 10));
      if (*end != '\0') return usage();
    } else if (key == "--spans-out") {
      spans_out = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload == nullptr || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return usage();
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const RoundResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  };

  // The host's speed, sampled before every round and after the last, when
  // none of the program's objects or threads are alive to slow it down.
  std::vector<double> reference_s{Reference().seconds()};
  const RoundResult ref = workload->round(seed, RoundMode{nullptr, true});
  account(ref);
  report_errors("checked round", ref, correct);

  std::vector<double> setup{ref.setup_s};
  std::vector<double> untraced_run_s;
  std::vector<double> throughput;
  std::vector<double> traced_run_s;
  std::map<std::string, std::vector<double>> layer;
  Tracer last_trace;
  const double deadline = now_s() + seconds;
  do {
    reference_s.push_back(Reference().seconds());
    const RoundResult r = workload->round(seed, RoundMode{nullptr, false});
    account(r);
    report_errors("timed round", r, correct);
    if (!same_simulation(ref, r)) {
      std::fprintf(stderr, "perfbench: a timed round diverged from the "
                           "checked round\n");
      correct = false;
    }
    std::fprintf(stderr,
                 "perfbench: %s round: setup %.4f s, run %.4f s, reference "
                 "pass %.5f s\n",
                 workload->name, r.setup_s, r.run_s, reference_s.back());
    setup.push_back(r.setup_s);
    untraced_run_s.push_back(r.run_s);
    throughput.push_back(static_cast<double>(r.attempted - r.failed) /
                         r.run_s);
    if (trace == 1) {
      Tracer tracer;
      const RoundResult t = workload->round(seed, RoundMode{&tracer, false});
      account(t);
      report_errors("traced round", t, correct);
      if (!same_simulation(r, t)) {
        std::fprintf(stderr, "perfbench: the traced round's simulated results "
                             "differ from the untraced round's\n");
        correct = false;
      }
      traced_run_s.push_back(t.run_s);
      for (const auto& [k, v] : layer_metrics(tracer, t)) layer[k].push_back(v);
      last_trace = std::move(tracer);
    }
  } while (now_s() < deadline);
  reference_s.push_back(Reference().seconds());

  // Host figures are scaled to the reference host's speed: a host that runs
  // the reference pass `slow` times slower than kReferencePassS also takes
  // about `slow` times longer over the workload.
  const double slow = median(reference_s) / kReferencePassS;
  std::fprintf(stderr,
               "perfbench: reference pass %.5f s (x%.3f), wall medians: "
               "setup %.5f s, %.6g jobs/s\n",
               median(reference_s), slow, median(setup), median(throughput));
  std::map<std::string, double> values;
  if (trace == 0) {
    const Summary s = summarize(ref.jct);
    values["setup_s"] = median(setup) / slow;
    values["jobs_per_host_s"] = median(throughput) * slow;
    rusage usage_self{};
    getrusage(RUSAGE_SELF, &usage_self);
    values["peak_rss_mb"] = static_cast<double>(usage_self.ru_maxrss) / 1024.0;
    values["jct_mean_s"] = s.mean;
    values["jct_p95_s"] = s.p95;
    values["jct_p99_s"] = s.p99;
    print_result(correct, attempted, failed, kEndToEnd,
                 std::size(kEndToEnd), values);
  } else {
    for (const auto& [k, v] : layer) values[k] = median(v);
    values["host.reference_pass_s"] = median(reference_s);
    values["host.setup_wall_s"] = median(setup);
    values["host.jobs_per_wall_s"] = median(throughput);
    values["obs.trace_overhead"] =
        median(traced_run_s) / median(untraced_run_s) - 1.0;
    kind_metrics(ref, values);
    if (!spans_out.empty() && !last_trace.write_json(spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
      correct = false;
    }
    print_result(correct, attempted, failed, kPerLayer, std::size(kPerLayer),
                 values);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
