#include "harness.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "ftmc/io/json.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point& process_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

// Pin the epoch at static-initialization time, i.e. process start.
[[maybe_unused]] const bool kEpochPinned = (process_epoch(), true);

/// Keeps the calibration kernel's result alive.
volatile std::uint64_t calibration_sink = 0;

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - process_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so it
  // would report the launching process's peak when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double calibration_cpu_s() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(std::size_t{1} << 15);
    std::uint64_t x = 1;
    for (std::uint64_t& v : t) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = x;
    }
    return t;
  }();
  const double c0 = process_cpu_s();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  double sum = 0.0;
  for (int i = 0; i < 120000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = table[(x + acc) & (table.size() - 1)];
    if ((v ^ x) & 1) {
      acc += v >> 7;
      if ((i & 15) == 0) sum += std::log1p(static_cast<double>(v >> 40) * 1e-7);
    } else {
      acc ^= v << 3;
    }
  }
  calibration_sink = acc + static_cast<std::uint64_t>(sum);
  return process_cpu_s() - c0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = tracer.spans_.size();
  Span span;
  span.name = name;
  span.id = tracer.next_id_++;
  span.parent = tracer.parent_;
  span.trace = tracer.trace_;
  span.begin_us = now_s() * 1e6;
  tracer.spans_.push_back(span);
  saved_parent_ = tracer.parent_;
  tracer.parent_ = span.id;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_us = now_s() * 1e6;
  tracer_->parent_ = saved_parent_;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << number(s.begin_us)
        << ",\"dur\":" << number(s.end_us - s.begin_us)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

void Report::set(const std::string& name, double value) {
  for (auto& [n, v] : metrics) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

std::string Report::to_json() const {
  ftmc::io::json::Object m;
  for (const auto& [name, value] : metrics) m.add_raw(name, number(value));
  std::vector<std::string> errs;
  for (const std::string& e : errors) {
    std::string quoted = "\"";
    quoted += ftmc::io::json::escape(e);
    quoted += '"';
    errs.push_back(std::move(quoted));
  }
  return ftmc::io::json::Object{}
      .add_bool("correct", correct)
      .add_int("attempted", static_cast<long long>(attempted))
      .add_int("failed", static_cast<long long>(failed))
      .add_raw("metrics", m.str())
      .add_raw("errors", ftmc::io::json::array(errs))
      .str();
}

void end_to_end_metrics(Report& report, const Measured& m, double tail_pct) {
  const Window& window = m.plain;
  const double scale = kNominalCalibrationS / median(window.calibration_s);
  report.set("setup_s", scale * median(m.setup_s));
  report.set("cpu_us_per_item", scale * median(window.round_cpu_us_per_item));
  report.set("p50_cpu_us", scale * percentile(window.unit_us, 50.0));
  report.set("tail_cpu_us", scale * percentile(window.unit_us, tail_pct));
  report.set("rss_mb", peak_rss_mb());
  // The tail percentile must leave at least ten samples beyond it.
  const double beyond =
      static_cast<double>(window.unit_us.size()) * (1.0 - tail_pct / 100.0);
  if (beyond < 10.0) {
    std::fprintf(stderr,
                 "perfbench: only %.1f samples beyond p%g (%zu units); "
                 "tail_cpu_us is not a tail\n",
                 beyond, tail_pct, window.unit_us.size());
  }
}

Measured measure(const Args& args, int setup_reps,
                 const std::function<void()>& setup, const RoundFn& round,
                 const std::function<void(bool)>& set_tracing,
                 const std::function<void()>& teardown) {
  std::uint64_t index = 0;
  RoundOutput out;
  const auto run = [&](std::uint64_t i, Window& w) {
    out.items = 0;
    out.failed = 0;
    out.unit_us.clear();
    const double t0 = now_s();
    const double cpu0 = process_cpu_s();
    round(i, out);
    const double cpu_s = process_cpu_s() - cpu0;
    w.cpu_s += cpu_s;
    w.wall_s += now_s() - t0;
    w.round_cpu_us_per_item.push_back(
        cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(out.items, 1)));
    w.calibration_s.push_back(calibration_cpu_s());
    w.items += out.items;
    w.failed += out.failed;
    w.unit_us.insert(w.unit_us.end(), out.unit_us.begin(), out.unit_us.end());
    ++w.rounds;
  };

  setup();
  // Warm-up rounds come from an index range of their own, so the timed
  // window always starts at round 0 and covers the same inputs for a
  // seed however fast the warm-up went.
  Window warm;
  const double warm0 = now_s();
  for (std::uint64_t w = kWarmupFirstRound;
       now_s() - warm0 < 1.0 || now_s() < 2.0; ++w) {
    run(w, warm);
  }

  Measured m;
  for (int r = 0; r < setup_reps; ++r) {
    if (teardown) teardown();
    const double s0 = process_cpu_s();
    setup();
    m.setup_s.push_back(process_cpu_s() - s0);
  }
  const double seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  const double t0 = now_s();
  do {
    run(index++, m.plain);
  } while (now_s() - t0 < seconds);
  if (!args.trace) return m;

  set_tracing(true);
  for (std::uint64_t i = 0; i < index; ++i) run(i, m.traced);
  set_tracing(false);
  return m;
}

void count_operations(Report& report, const Measured& m) {
  report.attempted = m.plain.items + m.traced.items;
  report.failed = m.plain.failed + m.traced.failed;
}

double trace_overhead(const Measured& m) {
  const auto per_item = [](const Window& w) {
    return w.wall_s / static_cast<double>(std::max<std::uint64_t>(w.items, 1));
  };
  return per_item(m.traced) / per_item(m.plain);
}

std::string run_dir(const Args& args) {
  return std::string(kOutDir) + "/" + args.workload + "-" +
         std::to_string(static_cast<long long>(getpid()));
}

std::string trace_path(const Args& args) {
  return std::string(kOutDir) + "/" + args.workload + ".trace.json";
}

}  // namespace perfbench
