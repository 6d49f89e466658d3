// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed only from the benchmark's own files, around its
// calls into the program's public functions; the program itself is never
// instrumented. Each span keeps an id, its parent (the span open when it
// began), a name, and steady-clock start/end in nanoseconds. Nothing is
// written while the run is going: the recorder keeps every span in memory
// and the driver writes them out as JSON after the last round.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Span names, one per layer boundary the benchmark crosses.
enum class SpanName : std::uint8_t {
  kSetup,          // everything before the first measured job
  kRun,            // the measured phase
  kGenerate,       // workload::Catalog / generate_jobs / generate_meta_ops
  kPopulate,       // fabric + Flowserver + scheme, or fs::Cluster + catalog
  kSimStep,        // sim::EventQueue::step
  kView,           // flowserver::Flowserver::view, just before a decision
  kDecide,         // policy::Scheme::plan_read_async
  kStartFlow,      // sdn::SdnFabric::start_flow
  kFlowDropped,    // policy::Scheme::on_flow_complete -> Flowserver drop
  kClientCall,     // fs::Client create/append/read_file/stat/remove/list
  kCount,         // number of names, not a span
};

inline const char* span_name(SpanName n) {
  static const char* const kNames[] = {
      "bench.setup",          "bench.run",        "workload.generate",
      "harness.populate",     "sim.step",         "flowserver.view",
      "flowserver.decide",    "sdn.start_flow",   "flowserver.flow_dropped",
      "fs.client.call",
  };
  return kNames[static_cast<std::size_t>(n)];
}

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  SpanName name = SpanName::kSetup;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Wall-clock time (steady clock) in nanoseconds. Rounds and spans both read
// it, so the per-layer times add up to the round's host time, and work the
// program moves onto other threads (decision_threads > 1) is neither hidden
// from nor double-counted in the figures.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  Tracer() { spans_.reserve(1u << 16); }

  std::uint32_t begin(SpanName name) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = open_.empty() ? 0 : open_.back();
    s.name = name;
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }

  void end(std::uint32_t id) {
    spans_[id - 1].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span: its duration minus the time its direct children cover.
  // Spans are strictly nested (one thread), so children never overlap.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent != 0) self[s.parent - 1] -= s.end_ns - s.start_ns;
    }
    return self;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}%s\n",
                   s.id, s.parent, span_name(s.name),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// RAII span; a null tracer records nothing (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
