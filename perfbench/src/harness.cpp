#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

remo::MonitoringTask redraw_attrs(const remo::SystemModel& system, remo::MonitoringTask task,
                                  remo::Rng& rng) {
  std::vector<remo::AttrId> pool;
  for (remo::NodeId n : task.nodes)
    for (remo::AttrId a : system.observable(n)) pool.push_back(a);
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  const std::size_t k = std::min(task.attrs.size(), pool.size());
  for (std::size_t i = 0; i < k; ++i)  // partial Fisher-Yates
    std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
  task.attrs.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(task.attrs.begin(), task.attrs.end());
  return task;
}

double shard_counter_sum(const remo::obs::RegistrySnapshot& snap, const std::string& suffix) {
  static const std::string kPrefix = "planner.shard";
  double sum = 0.0;
  for (const auto& [name, v] : snap.counters) {
    if (name.size() <= kPrefix.size() + suffix.size() || name.rfind(kPrefix, 0) != 0) continue;
    // planner.shard<k><suffix>, with <k> all digits.
    const std::size_t k_end = name.size() - suffix.size();
    if (name.compare(k_end, suffix.size(), suffix) != 0) continue;
    if (name.find_first_not_of("0123456789", kPrefix.size()) == k_end)
      sum += static_cast<double>(v);
  }
  return sum;
}

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return v > 0 ? "\"inf\"" : (v < 0 ? "\"-inf\"" : "\"nan\"");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Result::quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Result::info(const std::string& key, double v) { info_[key] = number(v); }

void Result::check(const std::string& name, bool ok, const std::string& detail) {
  if (!ok) ++checks_failed_;
  checks_.push_back("{\"name\":" + quote(name) + ",\"ok\":" + (ok ? "true" : "false") +
                    ",\"detail\":" + quote(detail) + "}");
}

std::string Result::to_json() const {
  std::string out;
  // Appends `items` as a JSON object/array body, comma-separated.
  auto list = [&out](const auto& items, auto&& emit) {
    bool first = true;
    for (const auto& item : items) {
      if (!first) out += ',';
      first = false;
      emit(item);
    }
  };
  auto series = [&out](const std::vector<double>& vs) {
    out += '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) out += ',';
      out += number(vs[i]);
    }
    out += ']';
  };
  out += "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"info\":{";
  list(info_, [&](const auto& kv) { out += quote(kv.first) + ':' + kv.second; });
  out += "},\"checks\":[";
  list(checks_, [&](const std::string& c) { out += c; });
  out += "],\"values\":{";
  list(values_, [&](const auto& kv) { out += quote(kv.first) + ':' + number(kv.second); });
  out += "},\"samples\":{";
  list(samples_, [&](const auto& kv) {
    out += quote(kv.first) + ':';
    series(kv.second);
  });
  out += "},\"weighted\":{";
  list(weighted_, [&](const auto& kv) {
    out += quote(kv.first) + ":[";
    list(kv.second, [&](const auto& vw) {
      out += '[' + number(vw.first) + ',' + number(vw.second) + ']';
    });
    out += ']';
  });
  out += "},\"spans\":[";
  list(spans_, [&](const Span& sp) {
    out += '[' + std::to_string(sp.id) + ',' + std::to_string(sp.parent) + ',' + quote(sp.name) +
           ',' + number(sp.duration_s) + ']';
  });
  out += "]}";
  return out;
}

Ledger::~Ledger() {
  if (in_segment_) end_segment();
}

void Ledger::begin_segment() {
  remo::obs::set_enabled(true);
  in_segment_ = true;
  segment_start_ = Clock::now();
}

void Ledger::end_segment() {
  traced_wall_s_ += seconds_since(segment_start_);
  in_segment_ = false;
  remo::obs::set_enabled(false);
}

void Ledger::drain() {
  // Only the benchmark's own thread records spans (pool workers and the
  // ingest producer open none), so nothing can land between the read and
  // the clear below. The drain span ends into the cleared ring and is
  // collected by the next drain.
  const remo::obs::Span span("bench.drain");
  auto& recorder = remo::obs::TraceRecorder::global();
  std::vector<remo::obs::SpanRecord> records = recorder.records();
  dropped_ += recorder.dropped();
  recorder.clear();
  auto& out = result_.spans();
  for (auto& r : records)
    out.push_back(Result::Span{r.id, r.parent, std::move(r.name), r.duration_s});
}

void Ledger::finish() {
  if (in_segment_) end_segment();
  auto& recorder = remo::obs::TraceRecorder::global();
  for (auto& r : recorder.records())
    result_.spans().push_back(Result::Span{r.id, r.parent, r.name, r.duration_s});
  dropped_ += recorder.dropped();
  recorder.clear();
  result_.value("obs.traced_wall_s", traced_wall_s_);
  result_.value("obs.spans_dropped", static_cast<double>(dropped_));
  result_.check("obs.no_spans_dropped", dropped_ == 0,
                std::to_string(dropped_) + " spans overwritten in the trace ring");
}

}  // namespace perfbench
