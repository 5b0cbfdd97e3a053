// Shared scaffolding of the repo benchmark (perfbench/README.md): the raw
// result every workload fills, wall/CPU clocks, and the traced-run ledger
// that drains the program's global TraceRecorder.
//
// The benchmark binary measures from outside the program: it only calls public
// functions of the REMO modules and reads their public stats and registry
// counters. Everything statistical (percentiles, self times, coverage) is
// computed by perfbench/stats.py from the raw samples written here.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cost/system_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "task/task.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_seconds();
/// Peak resident set size of the process, in MB.
double peak_rss_mb();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// splitmix64 step: derives independent input seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Raw outcome of one run, serialized as a single JSON line on stdout.
class Result {
 public:
  /// Raw timing/size samples, one value per operation.
  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  /// A sample that stands for `weight` operations sharing one value
  /// (e.g. every value batch applied by the same epoch).
  void weighted(const std::string& name, double v, double weight) {
    weighted_[name].push_back({v, weight});
  }
  void value(const std::string& name, double v) { values_[name] = v; }
  void info(const std::string& key, const std::string& v) { info_[key] = quote(v); }
  void info(const std::string& key, double v);
  /// Records one output check; a failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  void failed(std::uint64_t n = 1) { failed_ += n; }

  bool correct() const noexcept { return checks_failed_ == 0; }
  std::string to_json() const;

  /// Completed spans of traced segments: (id, parent, name, duration).
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    double duration_s = 0.0;
  };
  std::vector<Span>& spans() noexcept { return spans_; }

 private:
  static std::string quote(const std::string& s);

  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::vector<std::pair<double, double>>> weighted_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> info_;  ///< JSON-encoded values
  std::vector<std::string> checks_;          ///< JSON-encoded objects
  std::vector<Span> spans_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// Traced-run bookkeeping. Tracing is switched on only inside segments;
/// the wall time of all segments is the denominator of the ledger's
/// coverage. drain() moves the global recorder's spans into the result so
/// its ring never wraps, and counts any that did.
class Ledger {
 public:
  explicit Ledger(Result& result) : result_(result) {}
  ~Ledger();

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  void begin_segment();
  void end_segment();
  /// Call with no benchmark span open except the current root (or none).
  void drain();
  /// Writes obs.traced_wall_s / obs.spans_dropped and checks for drops.
  void finish();

 private:
  Result& result_;
  bool in_segment_ = false;
  Clock::time_point segment_start_;
  double traced_wall_s_ = 0.0;
  std::uint64_t dropped_ = 0;
};

/// Segment guard: tracing on for its lifetime (no-op without a ledger).
class TracedSegment {
 public:
  explicit TracedSegment(Ledger* ledger) : ledger_(ledger) {
    if (ledger_ != nullptr) ledger_->begin_segment();
  }
  ~TracedSegment() {
    if (ledger_ != nullptr) ledger_->end_segment();
  }
  TracedSegment(const TracedSegment&) = delete;
  TracedSegment& operator=(const TracedSegment&) = delete;

 private:
  Ledger* ledger_;
};

/// Task churn that keeps the workload's size steady: the same nodes and
/// number of attributes, with the attributes redrawn (distinct) from those
/// the task's nodes observe.
remo::MonitoringTask redraw_attrs(const remo::SystemModel& system, remo::MonitoringTask task,
                                  remo::Rng& rng);

/// Sum over shards of the federation's labeled planner counters
/// `planner.shard<k>.<suffix>` (suffix with its leading dot).
double shard_counter_sum(const remo::obs::RegistrySnapshot& snap, const std::string& suffix);

/// Entry points of the three workloads; each fills `result`.
void run_plan_cold(const Args& args, Result& result);
void run_churn_federated(const Args& args, Result& result);
void run_ingest_steady(const Args& args, Result& result);

/// Hardware threads the workload may keep busy (at least 1).
std::size_t hardware_threads();

}  // namespace perfbench
