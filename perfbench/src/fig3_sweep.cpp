/// fig3-sweep: the paper's four Fig. 3 campaign specs through
/// campaign::run_campaign, each pass into fresh journal directories. One
/// item is one task set; the latency unit is one campaign cell (the
/// runner's own per-cell span).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/core/analysis_reference.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/core/profiles.hpp"
#include "ftmc/exec/seed.hpp"
#include "ftmc/exec/stats.hpp"
#include "ftmc/mcs/edf.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/edf_vd_degradation.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/obs/span.hpp"
#include "ftmc/taskgen/generator.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace ftmc;

constexpr const char* kSpecNames[] = {"fig3a", "fig3b", "fig3c", "fig3d"};
/// Sets per grid point: the specs' 500 scaled down so one pass over all
/// four specs (152 cells, 3,040 sets) takes a quarter of a second or
/// less, which gives the pass-latency percentiles 65-80 samples in 20 s.
constexpr int kSetsPerPoint = 20;
/// One exec thread: with two, this benchmark's wall-clock figures moved
/// by 30-40% between runs on a shared 4-vCPU host while CPU time per
/// item moved by 3%.
constexpr int kThreads = 1;
/// A set-up takes about 50 us, so many are timed for a steady median.
constexpr int kSetupReps = 31;
/// Cells per spec recounted by the reference Algorithm 1.
constexpr int kCheckCellsPerSpec = 6;
/// Passes whose whole outcomes are kept for that recount: a seeded
/// reservoir sample of the run's passes, so the memory held does not grow
/// with the number of passes a run gets through.
constexpr std::size_t kKeptPasses = 8;
/// The latency unit is a whole pass (per-cell times exist only as the
/// runner's wall-clock spans); p80 leaves 13-16 passes beyond it.
constexpr double kTailPct = 80.0;

taskgen::GeneratorParams generator_params(const campaign::CellSpec& cell) {
  taskgen::GeneratorParams p;
  p.u_min = cell.generator.u_min;
  p.u_max = cell.generator.u_max;
  p.period_min = cell.generator.period_min_ms;
  p.period_max = cell.generator.period_max_ms;
  p.period_distribution = cell.generator.period_distribution;
  p.p_hi = cell.generator.p_hi;
  p.target_utilization = cell.utilization;
  p.failure_prob = cell.failure_prob;
  p.mapping = cell.mapping;
  return p;
}

core::AdaptationModel adaptation_model(const campaign::CellSpec& cell) {
  core::AdaptationModel m;
  m.kind = campaign::adaptation_of(cell.scheduler);
  m.degradation_factor = cell.degradation_factor;
  m.os_hours = cell.os_hours;
  return m;
}

/// Algorithm 1 written out with the straight-line core::reference PFH
/// bounds and materialized schedulability tests on convert_to_mc (never
/// the closed-form U_MC), under the Appendix C protocol the campaign
/// runner uses (adaptation only if plain worst-case EDF fails).
campaign::CellCounts reference_cell_counts(const campaign::CellSpec& cell) {
  const auto reqs = core::SafetyRequirements::do178b();
  const core::AdaptationModel model = adaptation_model(cell);
  const mcs::EdfWorstCaseTest worst_case;
  std::unique_ptr<mcs::SchedulabilityTest> test;
  if (model.kind == mcs::AdaptationKind::kDegradation) {
    test = std::make_unique<mcs::EdfVdDegradationTest>(
        cell.degradation_factor);
  } else {
    test = std::make_unique<mcs::EdfVdTest>();
  }

  const auto min_profile = [&](const core::FtTaskSet& ts,
                               CritLevel level) -> std::optional<int> {
    for (int n = 1; n <= core::kMaxProfile; ++n) {
      const double pfh = core::reference::pfh_plain(
          ts, core::uniform_profile(ts, n, n), level);
      if (reqs.satisfied(ts.mapping().dal_of(level), pfh)) return n;
    }
    return std::nullopt;
  };
  const auto pfh_lo = [&](const core::FtTaskSet& ts, int n_hi, int n_lo,
                          int n_adapt) {
    const core::PerTaskProfile n = core::uniform_profile(ts, n_hi, n_lo);
    const core::PerTaskProfile na = core::uniform_profile(ts, n_adapt, 0);
    if (model.kind == mcs::AdaptationKind::kDegradation) {
      return core::reference::pfh_lo_degradation(ts, n, na, model.os_hours);
    }
    core::KillingBoundOptions opt;
    opt.os_hours = model.os_hours;
    return core::reference::pfh_lo_killing(ts, n, na, opt);
  };

  taskgen::Rng rng(cell.seed);
  const taskgen::GeneratorParams params = generator_params(cell);
  campaign::CellCounts counts;
  for (int i = 0; i < cell.sets_per_point; ++i) {
    const core::FtTaskSet ts = taskgen::generate_task_set(params, rng);
    const auto n_hi = min_profile(ts, CritLevel::HI);
    const auto n_lo = min_profile(ts, CritLevel::LO);
    if (!n_hi || !n_lo) continue;
    if (worst_case.schedulable(core::convert_to_mc(ts, *n_hi, *n_lo, *n_hi))) {
      ++counts.accept_without;
      ++counts.accept_with;
      continue;
    }
    std::optional<int> n1;
    for (int n = 0; n < *n_hi && !n1; ++n) {
      if (reqs.satisfied(ts.mapping().lo, pfh_lo(ts, *n_hi, *n_lo, n))) n1 = n;
    }
    if (!n1) continue;
    std::optional<int> n2;
    for (int n = *n_hi; n >= 0 && !n2; --n) {
      if (test->schedulable(core::convert_to_mc(ts, *n_hi, *n_lo, n))) n2 = n;
    }
    if (n2 && *n1 <= *n2) ++counts.accept_with;
  }
  return counts;
}

/// Summed cell time (s) of the runner's "campaign.cell" spans.
double cell_seconds(obs::SpanRecorder& rec) {
  double sum = 0.0;
  std::vector<std::string> lanes{"main"};
  for (int w = 0; w + 1 < kThreads; ++w) lanes.push_back("worker-" + std::to_string(w));
  for (const std::string& name : lanes) {
    const obs::SpanRecorder::Lane* lane = rec.acquire_lane(name);
    if (lane == nullptr) continue;
    const std::size_t n = lane->count.load();
    for (std::size_t i = 0; i < n; ++i) {
      const obs::SpanEvent& e = lane->events[i];
      if (std::string_view(e.name) != "campaign.cell") continue;
      sum += static_cast<double>(e.end_ns - e.begin_ns) / 1e9;
    }
  }
  return sum;
}

class Fig3Sweep {
 public:
  explicit Fig3Sweep(const Args& args) : args_(args), root_(run_dir(args)) {}
  ~Fig3Sweep() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  Fig3Sweep(const Fig3Sweep&) = delete;
  Fig3Sweep& operator=(const Fig3Sweep&) = delete;

  /// Spec parse and expansion (run_campaign expands again; this is what a
  /// caller preparing a sweep pays) plus the next pass's journal
  /// directories.
  void setup() {
    specs_.clear();
    cells_.clear();
    for (std::size_t i = 0; i < std::size(kSpecNames); ++i) {
      campaign::CampaignSpec spec = campaign::load_spec_file(
          std::string("bench/specs/") + kSpecNames[i] + ".json");
      spec.sets_per_point = kSetsPerPoint;
      cells_.push_back(campaign::expand_cells(spec));
      specs_.push_back(std::move(spec));
    }
    for (const char* name : kSpecNames) {
      fs::create_directories(pass_dir(pass_) + "/" + name);
    }
  }

  void round(std::uint64_t index, RoundOutput& out) {
    Tracer::Scope pass_span(tracer_, "fig3.pass");
    const double cpu0 = process_cpu_s();
    std::vector<campaign::CampaignResult> results;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      // Every round draws fresh task sets: the seed of spec i in round k
      // derives from the run seed, so equal seeds give equal inputs. The
      // journal directory is fresh for every pass, replays included.
      specs_[i].seed = exec::derive_seed(args_.seed, index * specs_.size() + i);
      obs::SpanRecorder cell_spans(512);
      campaign::RunnerOptions opt;
      opt.threads = kThreads;
      opt.dir = pass_dir(pass_) + "/" + kSpecNames[i];
      opt.spans = &cell_spans;
      opt.stats = tracer_.enabled() ? &stats_ : nullptr;
      const double region0 =
          tracer_.enabled() ? stats_.phase("campaign").wall_seconds : 0.0;
      const double t0 = now_s();
      campaign::CampaignResult result;
      {
        Tracer::Scope span(tracer_, "campaign.run_campaign");
        result = campaign::run_campaign(specs_[i], opt);
      }
      if (tracer_.enabled()) {
        self_s_ += (now_s() - t0) -
                   (stats_.phase("campaign").wall_seconds - region0);
        ++campaigns_traced_;
        journal_bytes_ += static_cast<double>(
            fs::file_size(opt.dir + "/journal.jsonl"));
        cell_s_ += cell_seconds(cell_spans);
      }
      out.items += result.cells.size() *
                   static_cast<std::uint64_t>(specs_[i].sets_per_point);
      check_now(i, result);
      results.push_back(std::move(result));
    }
    out.unit_us.push_back((process_cpu_s() - cpu0) * 1e6);
    keep(std::move(results));
    ++pass_;
    tracer_.next_trace();
  }

  void set_tracing(bool on) {
    tracer_.enable(on);
    obs::Registry::global().enable(on);
    if (on) {
      conversions0_ = conversions().value();
      analyses0_ = analyses().value();
      passes_before_trace_ = pass_;
    }
  }

  void layer_metrics(Report& report, const Measured& m) {
    const double sets = static_cast<double>(m.traced.items);
    report.set("core.conversions.per_set",
               static_cast<double>(conversions().value() - conversions0_) / sets);
    const double analyses_per_set =
        static_cast<double>(analyses().value() - analyses0_) / sets;
    report.set("mcs.mc_dbf.analyses_per_set", analyses_per_set);
    report.check(analyses_per_set == 0.0,
                 "fig3-sweep ran MC-DBF analyses; the closed form should "
                 "keep the demand kernel idle");
    const exec::PhaseStats ph = stats_.phase("campaign");
    report.set("exec.campaign.parallel_efficiency",
               cell_s_ / (ph.wall_seconds * kThreads));
    report.set("campaign.self_ms", 1e3 * self_s_ / campaigns_traced_);
    const double passes = static_cast<double>(pass_ - passes_before_trace_);
    report.set("campaign.journal_bytes", journal_bytes_ / passes);
    report.set("obs.trace_overhead", trace_overhead(m));
    probe_layers(report);
  }

  void check(Report& report) {
    const std::size_t n_specs = std::size(kSpecNames);
    for (const std::string& problem : problems_) report.check(false, problem);
    report.check(problem_count_ == problems_.size(),
                 std::to_string(problem_count_) + " campaign checks failed");
    // A sample of cells, from the passes kept, recounted by the
    // reference Algorithm 1.
    std::mt19937_64 pick(exec::derive_seed(args_.seed, 99));
    for (std::size_t i = 0; i < n_specs; ++i) {
      for (int k = 0; k < kCheckCellsPerSpec; ++k) {
        const std::size_t pass = pick() % (passes_.size() / n_specs);
        const auto& cells = passes_[pass * n_specs + i].cells;
        const campaign::CellOutcome& c = cells[pick() % cells.size()];
        const campaign::CellCounts ref = reference_cell_counts(c.cell);
        report.check(ref.accept_without == c.counts.accept_without &&
                         ref.accept_with == c.counts.accept_with,
                     std::string(kSpecNames[i]) + " kept pass " +
                         std::to_string(pass) + " cell " +
                         std::to_string(c.cell.index) +
                         ": campaign counts differ from reference "
                         "Algorithm 1");
      }
    }
  }

  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  static obs::Counter conversions() {
    return obs::Registry::global().counter("core.conversions");
  }
  static obs::Counter analyses() {
    return obs::Registry::global().counter("mcs.mc_dbf.analyses");
  }

  /// Checks one campaign of the current pass: it completed, and in every
  /// cell acceptance with adaptation is at least acceptance without.
  void check_now(std::size_t spec, const campaign::CampaignResult& result) {
    const std::string where =
        std::string(kSpecNames[spec]) + " pass " + std::to_string(pass_);
    const auto problem = [&](const std::string& what) {
      if (problems_.size() < 8) problems_.push_back(where + what);
      ++problem_count_;
    };
    if (!result.complete) problem(": did not complete");
    for (const campaign::CellOutcome& c : result.cells) {
      if (c.counts.accept_with < c.counts.accept_without) {
        problem(" cell " + std::to_string(c.cell.index) +
                ": accept_with < accept_without");
      }
    }
  }

  /// Reservoir sampling (Algorithm R) over the passes run so far.
  void keep(std::vector<campaign::CampaignResult> results) {
    const std::size_t n_specs = std::size(kSpecNames);
    const std::uint64_t seen = ++passes_seen_;
    std::size_t slot = passes_.size() / n_specs;
    if (slot >= kKeptPasses) {
      slot = reservoir_rng_() % seen;
      if (slot >= kKeptPasses) return;
    } else {
      passes_.resize(passes_.size() + n_specs);
    }
    for (std::size_t i = 0; i < n_specs; ++i) {
      passes_[slot * n_specs + i] = std::move(results[i]);
    }
  }

  [[nodiscard]] std::string pass_dir(std::uint64_t pass) const {
    return root_ + "/pass-" + std::to_string(pass);
  }

  /// Layer timings on one kept pass's cells, outside any window: task
  /// generation plus the core probe (profile search, PFH bound).
  void probe_layers(Report& report) {
    double gen_us = 0.0;
    std::size_t sets = 0;
    CoreProbe core_probe;
    for (std::size_t k = 0; k < std::size(kSpecNames); ++k) {
      const campaign::CampaignResult& result = passes_[k];
      for (const campaign::CellOutcome& c : result.cells) {
        const taskgen::GeneratorParams params = generator_params(c.cell);
        core::FtsConfig fts;
        fts.adaptation = adaptation_model(c.cell);
        fts.prefer_no_adaptation = true;
        taskgen::Rng rng(c.cell.seed);
        for (int i = 0; i < c.cell.sets_per_point; ++i) {
          const double t0 = now_s();
          const core::FtTaskSet ts = taskgen::generate_task_set(params, rng);
          gen_us += (now_s() - t0) * 1e6;
          ++sets;
          core_probe.run(ts, fts);
        }
      }
    }
    report.set("taskgen.us_per_set", gen_us / static_cast<double>(sets));
    core_probe.report_to(report);
  }

  const Args& args_;
  std::string root_;
  std::vector<campaign::CampaignSpec> specs_;
  std::vector<std::vector<campaign::CellSpec>> cells_;
  /// Outcomes of the kept passes, four campaigns each.
  std::vector<campaign::CampaignResult> passes_;
  std::uint64_t passes_seen_ = 0;
  std::mt19937_64 reservoir_rng_{exec::derive_seed(args_.seed, 98)};
  std::vector<std::string> problems_;  ///< the first few failed checks
  std::size_t problem_count_ = 0;
  std::uint64_t pass_ = 0;
  std::uint64_t passes_before_trace_ = 0;
  Tracer tracer_;
  exec::RunStats stats_;
  double self_s_ = 0.0;
  double cell_s_ = 0.0;  ///< summed cell spans of the traced window
  double journal_bytes_ = 0.0;
  std::size_t campaigns_traced_ = 0;
  std::uint64_t conversions0_ = 0;
  std::uint64_t analyses0_ = 0;
};

}  // namespace

Report run_fig3_sweep(const Args& args) {
  Report report;
  Fig3Sweep w(args);
  const Measured m = measure(
      args, kSetupReps, [&] { w.setup(); },
      [&](std::uint64_t i, RoundOutput& out) { w.round(i, out); },
      [&](bool on) { w.set_tracing(on); });
  count_operations(report, m);
  if (args.trace) {
    w.layer_metrics(report, m);
    w.tracer().write_chrome_trace(trace_path(args));
  } else {
    end_to_end_metrics(report, m, kTailPct);
  }
  w.check(report);
  return report;
}

}  // namespace perfbench
