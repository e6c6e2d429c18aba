/// \file harness.hpp
/// \brief Shared machinery of the benchmark worker: clocks, percentiles,
///        the set-up / warm-up / timed-window driver, a span tracer and
///        the report every workload fills in.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line arguments of one worker run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Directory for run artifacts (journals, span files), relative to the
/// repository root the worker runs in.
inline constexpr const char* kOutDir = ".bench_out";

/// Steady-clock seconds since the worker process started.
[[nodiscard]] double now_s();
/// CPU seconds consumed by the whole process (all threads).
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolation percentile (q in [0, 100]) of `values`.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Spans recorded by the benchmark around its calls into the layers. A
/// disabled tracer records nothing; spans are kept in memory and written
/// out once, as Chrome trace-event JSON, when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t trace = 0;   ///< spans of one item share this id
    double begin_us = 0.0;
    double end_us = 0.0;
  };

  /// RAII span; a no-op while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
    std::uint64_t saved_parent_ = 0;
  };

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Starts a new item: later root spans carry a fresh trace id.
  void next_trace() { ++trace_; }

  /// Writes {"traceEvents":[...]} with one complete event per span.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t parent_ = 0;
  std::uint64_t trace_ = 0;
  std::vector<Span> spans_;
};

/// What a workload's round function reports: items attempted, those of
/// them that failed their check, and one latency sample per unit the
/// workload defines: the unit's process CPU time in us. CPU time leaves
/// out the time a shared host takes from the VM, which wall-clock
/// latencies follow.
struct RoundOutput {
  std::uint64_t items = 0;
  std::uint64_t failed = 0;
  std::vector<double> unit_us;
};

/// CPU seconds the calibration kernel takes on the reference host of
/// perfbench/README.md; the end-to-end times are scaled to that host.
inline constexpr double kNominalCalibrationS = 1e-3;

/// Runs the calibration kernel once and returns its process CPU seconds.
/// The kernel is fixed code of the benchmark, not of the library: integer
/// mixing, data-dependent branches, a few libm calls and random reads of
/// a 256 KiB table, which every round evicts from the core's caches. Its
/// time follows the speed the host gives this process's core and its
/// shared cache; a variant whose table stays in L1 kept within 2% while
/// sim-faults moved by 40%, so the reads of the evicted table are what
/// let it follow the workloads.
[[nodiscard]] double calibration_cpu_s();

/// One timed window of whole rounds. wall_s and cpu_s cover the rounds
/// only; one calibration runs after every round.
struct Window {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> round_cpu_us_per_item;
  std::vector<double> calibration_s;
  std::uint64_t items = 0;
  std::uint64_t failed = 0;
  std::uint64_t rounds = 0;
  std::vector<double> unit_us;
};

/// Index of the first warm-up round; timed rounds count from 0.
inline constexpr std::uint64_t kWarmupFirstRound = std::uint64_t{1} << 40;

/// Runs round number `index` of the workload. Inputs derive from the
/// seed and the index only, so re-running an index repeats its work.
using RoundFn = std::function<void(std::uint64_t index, RoundOutput&)>;

/// The worker's result: correctness, operation counts and metrics.
struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  /// Records a failed correctness check (first few messages kept).
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value);
  [[nodiscard]] std::string to_json() const;
};

/// Runs a workload: its set-up once, then a warm-up of at least one
/// second that lasts until the process is two seconds old (a process
/// runs measurably faster in its first second on some hosts, so nothing
/// before that is timed), then `setup_reps` timed set-ups (each after
/// an untimed `teardown`, if given, of the previous one; each timed by
/// the process CPU clock, all threads included), then the timed
/// window(s). An end-to-end run times whole rounds until `args.seconds`
/// have passed. A traced run instead times half that untraced, then
/// replays exactly the same rounds with `set_tracing(true)`, so the two
/// windows do equal work.
struct Measured {
  std::vector<double> setup_s;  ///< one duration per timed set-up
  Window plain;
  Window traced;  ///< empty unless args.trace
};
[[nodiscard]] Measured measure(const Args& args, int setup_reps,
                               const std::function<void()>& setup,
                               const RoundFn& round,
                               const std::function<void(bool)>& set_tracing,
                               const std::function<void()>& teardown = {});

/// The end-to-end metrics every workload reports from its set-ups and
/// timed window: setup_s (median set-up CPU time), cpu_us_per_item (the
/// median over rounds of a round's CPU time per item), p50_cpu_us and
/// tail_cpu_us (percentiles of the units' CPU times),
/// rss_mb. Every time is scaled by kNominalCalibrationS over the median
/// calibration of the window. `tail_pct` is the workload's fixed tail
/// percentile.
void end_to_end_metrics(Report& report, const Measured& m, double tail_pct);

/// Items attempted and failed over both windows (warm-up excluded).
void count_operations(Report& report, const Measured& m);

/// Wall time per item of the traced window over the untraced one.
[[nodiscard]] double trace_overhead(const Measured& m);

/// Directory for this run's artifacts: .bench_out/<workload>-<pid>.
[[nodiscard]] std::string run_dir(const Args& args);
/// Where a traced run writes its spans: .bench_out/<workload>.trace.json.
[[nodiscard]] std::string trace_path(const Args& args);

}  // namespace perfbench
