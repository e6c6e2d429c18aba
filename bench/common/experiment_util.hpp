/// \file experiment_util.hpp
/// \brief Shared helpers for the reproduction benches: the Fig. 3
///        acceptance-ratio experiment driver (now a thin veneer over
///        ftmc::campaign), per-binary telemetry (BENCH_<name>.json) and
///        small printing utilities.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/common/expected.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/exec/stats.hpp"
#include "ftmc/obs/progress.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace ftmc::bench {

/// Telemetry of one bench binary. Construct at the top of main; the
/// destructor writes `BENCH_<name>.json` (into FTMC_BENCH_DIR, default
/// the working directory) with wall time, thread count, argv, optional
/// throughput and domain notes, plus a snapshot of the global metrics
/// registry — which the constructor enables, so analysis hot-path
/// counters (mcs.*, core.*, campaign.*) are populated for every bench
/// run.
class BenchReport {
 public:
  BenchReport(std::string name, int argc, char** argv);
  ~BenchReport();
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Headline work volume; reported with the derived items-per-second.
  void set_items(double items, std::string unit = "items");
  /// Same, but with an explicitly measured duration: items_per_sec is then
  /// items / measured_seconds instead of items / total wall time. For
  /// binaries where the gated workload is only one section of the process
  /// (e.g. the micro benches, whose google-benchmark phase has a fixed
  /// wall time that would dilute the rate).
  void set_items_measured(double items, double measured_seconds,
                          std::string unit = "items");
  /// Domain-specific metrics attached under "notes".
  void note_number(std::string_view key, double value);
  void note_string(std::string_view key, std::string_view value);

  /// Seconds since construction.
  [[nodiscard]] double wall_seconds() const;
  /// Output path (FTMC_BENCH_DIR joined with BENCH_<name>.json).
  [[nodiscard]] std::string path() const;
  /// Renders and writes the report now (the destructor then skips it).
  void write();

 private:
  std::string name_;
  std::vector<std::string> argv_;
  std::chrono::steady_clock::time_point t0_;
  double items_ = -1.0;
  double measured_seconds_ = -1.0;  ///< < 0: rate uses total wall time
  std::string items_unit_;
  std::vector<std::pair<std::string, std::string>> notes_;  // key, raw json
  bool written_ = false;
};

/// True when `--progress` appears in argv (live stderr progress meter).
[[nodiscard]] bool progress_requested(int argc, char** argv);

/// Configuration of one Fig. 3 subfigure (Sec. 5.2 / Appendix C.0.5).
struct Fig3Config {
  std::string title;
  AdaptationKind kind = AdaptationKind::kKilling;
  DualCriticalityMapping mapping{Dal::B, Dal::D};
  double degradation_factor = 6.0;
  /// Universal per-job failure probabilities to sweep (legend of Fig. 3).
  std::vector<double> failure_probs{1e-3, 1e-5};
  /// System utilizations on the x-axis. Note this is the *base* (single-
  /// execution) utilization; re-execution inflates the effective load by
  /// roughly n_HI/n_LO, so acceptance declines well before U = 1.
  std::vector<double> utilizations{0.10, 0.15, 0.20, 0.25, 0.30, 0.35,
                                   0.40, 0.45, 0.50, 0.55, 0.60, 0.65,
                                   0.70, 0.75, 0.80, 0.85, 0.90, 0.95,
                                   1.00};
  int sets_per_point = 500;  ///< paper: "500 at each data point"
  double os_hours = 1.0;
  std::uint64_t seed = 20140601;  // DAC 2014
  /// Worker threads for the per-data-point sweep: <= 0 = one per
  /// hardware thread (default), 1 = serial. Each (f, U) point draws its
  /// task sets from a stream derived from (seed, point index) only, so
  /// results are identical for every thread count.
  int threads = 0;
  exec::RunStats* stats = nullptr;  ///< optional run counters
  /// Optional progress callback (done = data points finished). The
  /// `--progress` CLI flag installs a stderr meter when this is empty.
  obs::ProgressFn progress;
};

/// One data point: acceptance ratios with and without the adaptation
/// mechanism (the shaded "schedulability gap" of Fig. 3).
struct Fig3Point {
  double failure_prob = 0.0;
  double utilization = 0.0;
  double ratio_without = 0.0;  ///< plain worst-case EDF, no mode switch
  double ratio_with = 0.0;     ///< FT-EDF-VD (killing or degradation)
};

/// The Fig3Config expressed as a single-scheduler campaign spec; the
/// campaign runner is the one implementation of the sweep.
[[nodiscard]] campaign::CampaignSpec fig3_campaign_spec(
    const Fig3Config& config, std::string name = "fig3");

/// Completed campaign cells as Fig. 3 points (expansion order ==
/// the historical point order: failure_probs major, utilizations minor).
[[nodiscard]] std::vector<Fig3Point> fig3_points_from(
    const campaign::CampaignResult& result);

/// Runs the experiment through ftmc::campaign (in memory — use the
/// ftmc_campaign CLI or fig3_campaign_main's --out for persistent,
/// resumable runs). For each random task set, the baseline accepts if
/// the minimal re-execution profiles exist and worst-case EDF fits without
/// any adaptation; the adaptive variant additionally tries FT-EDF-VD
/// ("task killing or service degradation is only adopted if the system is
/// not feasible otherwise", Appendix C).
[[nodiscard]] std::vector<Fig3Point> run_fig3(const Fig3Config& config);

/// Prints the experiment as aligned text plus a CSV block for plotting.
void print_fig3(const Fig3Config& config,
                const std::vector<Fig3Point>& points);
/// Same, with the headline fields taken from a campaign spec.
void print_fig3(const campaign::CampaignSpec& spec,
                const std::vector<Fig3Point>& points);

/// The CLI flags shared by the sweep benches, parsed strictly.
struct BenchOverrides {
  std::optional<int> sets;
  std::optional<std::uint64_t> seed;
  std::optional<int> threads;
  bool progress = false;
  std::optional<std::string> spec;  ///< --spec FILE (campaign benches)
  std::optional<std::string> out;   ///< --out DIR (campaign benches)
};

/// Parses "--sets N", "--seed S", "--threads T", "--progress" and (when
/// `allow_campaign_flags`) "--spec FILE" / "--out DIR". Strict: unknown
/// flags, missing values and malformed numbers come back as an error —
/// mains print it and exit non-zero instead of silently ignoring input.
[[nodiscard]] Expected<BenchOverrides> parse_bench_overrides(
    int argc, char** argv, bool allow_campaign_flags = false);

/// Applies parse_bench_overrides plus the FTMC_BENCH_SETS /
/// FTMC_BENCH_THREADS environment overrides (CI smoke runs; env wins
/// over CLI) to a Fig3Config. Malformed input — CLI or environment —
/// is an error, not a silent default.
[[nodiscard]] Expected<Fig3Config> apply_cli_overrides(Fig3Config config,
                                                       int argc,
                                                       char** argv);

/// Shared main() of the fig3a-d benches: loads the campaign spec at
/// `default_spec_path` (overridable with --spec), applies CLI/env
/// overrides, runs it through the campaign runner (persistently when
/// --out DIR is given) and prints the Fig. 3 tables. Returns the process
/// exit code (2 on bad input).
[[nodiscard]] int fig3_campaign_main(const char* bench_name,
                                     const char* default_spec_path,
                                     int argc, char** argv);

}  // namespace ftmc::bench
