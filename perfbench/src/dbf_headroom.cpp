/// dbf-headroom: FT-S with S = mcs::McDbfTest (no closed form) on
/// constrained-deadline Appendix-C sets, then, for every accepted Γ, the
/// WCET headroom search mcs::max_wcet_scaling under the same test. One
/// thread; one item (and latency unit) is one task set.
#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ftmc/core/analysis_reference.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/exec/seed.hpp"
#include "ftmc/mcs/mc_dbf.hpp"
#include "ftmc/mcs/mc_dbf_reference.hpp"
#include "ftmc/mcs/sensitivity.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/taskgen/generator.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftmc;

/// Fig. 3's utilization axis, 0.10 .. 1.00 in steps of 0.05.
constexpr int kUtilPoints = 19;
constexpr double kFailureProbs[] = {1e-3, 1e-5};
/// Task sets per (utilization, f) grid point in the input pool; a round
/// takes one set of every grid point, so the pool holds this many rounds.
constexpr int kRoundsInPool = 400;
constexpr int kSetupReps = 5;
/// Accepted sets re-verified by the reference analyses.
constexpr std::size_t kCheckSets = 60;
constexpr double kScalingCeiling = 8.0;
constexpr double kScalingTolerance = 1e-3;
/// The sets of a window are distinct; p95 leaves about 600 beyond. At
/// p99 the percentile sat among the rare sets whose headroom search
/// probes U close to 1, and moved by 0.2 between runs.
constexpr double kTailPct = 95.0;

double grid_utilization(int k) { return 0.10 + 0.05 * k; }

/// SchedulabilityTest decorator passed to FT-S and the headroom search
/// as S: counts calls and the time spent inside the wrapped test.
class TimedTest final : public mcs::SchedulabilityTest {
 public:
  TimedTest(mcs::SchedulabilityTestPtr inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] bool schedulable(const mcs::McTaskSet& ts) const override {
    if (!tracer_.enabled()) return inner_->schedulable(ts);
    Tracer::Scope span(tracer_, "mcs.test");
    const double t0 = now_s();
    const bool ok = inner_->schedulable(ts);
    seconds_ += now_s() - t0;
    ++calls_;
    return ok;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] mcs::AdaptationKind adaptation() const override {
    return inner_->adaptation();
  }
  [[nodiscard]] bool requires_implicit_deadlines() const override {
    return inner_->requires_implicit_deadlines();
  }

  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  mcs::SchedulabilityTestPtr inner_;
  Tracer& tracer_;
  mutable double seconds_ = 0.0;
  mutable std::uint64_t calls_ = 0;
};

mcs::McTaskSet scaled(const mcs::McTaskSet& ts, double s) {
  mcs::McTaskSet out;
  for (mcs::McTask t : ts.tasks()) {
    t.wcet_lo *= s;
    t.wcet_hi *= s;
    out.add(std::move(t));
  }
  return out;
}

/// What one item produced, kept for the checks.
struct Outcome {
  bool done = false;
  core::FtsResult fts;
  mcs::ScalingResult scaling;
};

class DbfHeadroom {
 public:
  explicit DbfHeadroom(const Args& args)
      : args_(args),
        test_(std::make_shared<TimedTest>(std::make_shared<mcs::McDbfTest>(),
                                          tracer_)) {
    fts_.test = test_;
    fts_.use_closed_form_umc = false;
    fts_.adaptation.kind = mcs::AdaptationKind::kKilling;
  }

  /// Generates the input pool: Appendix-C sets (HI = B, LO = D, as in Fig. 3a) over the
  /// utilization axis and both failure probabilities, each deadline then
  /// drawn uniformly from [T/2, T].
  void setup() {
    pool_.clear();
    taskgen::Rng rng(exec::derive_seed(args_.seed, 1));
    std::uniform_real_distribution<double> deadline_share(0.5, 1.0);
    for (int r = 0; r < kRoundsInPool; ++r) {
      for (double f : kFailureProbs) {
        for (int k = 0; k < kUtilPoints; ++k) {
          taskgen::GeneratorParams params;
          params.target_utilization = grid_utilization(k);
          params.failure_prob = f;
          params.mapping = {Dal::B, Dal::D};
          const core::FtTaskSet implicit = taskgen::generate_task_set(params, rng);
          std::vector<core::FtTask> tasks = implicit.tasks();
          for (core::FtTask& t : tasks) {
            t.deadline = std::max(t.wcet, t.period * deadline_share(rng));
          }
          pool_.emplace_back(std::move(tasks), implicit.mapping());
        }
      }
    }
    outcomes_.assign(pool_.size(), Outcome{});
  }

  [[nodiscard]] static std::size_t round_size() {
    return kUtilPoints * std::size(kFailureProbs);
  }

  void round(std::uint64_t index, RoundOutput& out) {
    const std::size_t n = round_size();
    const std::size_t base = (index % kRoundsInPool) * n;
    for (std::size_t i = base; i < base + n; ++i) {
      tracer_.next_trace();
      Tracer::Scope item(tracer_, "item");
      const double t0 = now_s();
      const double cpu0 = process_cpu_s();
      Outcome o;
      {
        Tracer::Scope span(tracer_, "core.ft_schedule");
        const double s0 = test_->seconds();
        o.fts = core::ft_schedule(pool_[i], fts_);
        fts_test_s_ += test_->seconds() - s0;
        fts_s_ += now_s() - t0;
      }
      if (o.fts.success) {
        Tracer::Scope span(tracer_, "mcs.headroom");
        const double h0 = now_s();
        o.scaling = mcs::max_wcet_scaling(o.fts.converted, *test_,
                                          kScalingCeiling, kScalingTolerance);
        headroom_s_ += now_s() - h0;
        ++accepted_;
      }
      const double item_s = now_s() - t0;
      item_s_ += item_s;
      out.unit_us.push_back((process_cpu_s() - cpu0) * 1e6);
      o.done = true;
      keep(i, std::move(o));
    }
    out.items += n;
  }

  void set_tracing(bool on) {
    tracer_.enable(on);
    obs::Registry::global().enable(on);
    if (on) {
      fts_s_ = fts_test_s_ = headroom_s_ = item_s_ = 0.0;
      accepted_ = 0;
      conversions0_ = counter("core.conversions");
      analyses0_ = counter("mcs.mc_dbf.analyses");
      evals0_ = counter("mcs.mc_dbf.edf_evals");
    }
  }

  void layer_metrics(Report& report, const Measured& m) {
    const double sets = static_cast<double>(m.traced.items);
    const double calls = static_cast<double>(test_->calls());
    const double analyses =
        static_cast<double>(counter("mcs.mc_dbf.analyses") - analyses0_);
    report.set("core.conversions.per_set",
               static_cast<double>(counter("core.conversions") - conversions0_) /
                   sets);
    report.set("core.fts.self_us_per_set", (fts_s_ - fts_test_s_) * 1e6 / sets);
    report.set("mcs.test.calls_per_set", calls / sets);
    report.set("mcs.test.us_per_call", test_->seconds() * 1e6 / calls);
    report.set("mcs.test.share", test_->seconds() / item_s_);
    report.set("mcs.mc_dbf.analyses_per_set", analyses / sets);
    report.set("mcs.mc_dbf.edf_evals_per_analysis",
               static_cast<double>(counter("mcs.mc_dbf.edf_evals") - evals0_) /
                   analyses);
    report.set("mcs.headroom.us_per_set",
               headroom_s_ * 1e6 /
                   static_cast<double>(std::max<std::uint64_t>(accepted_, 1)));
    report.set("obs.trace_overhead", trace_overhead(m));
    probe_layers(report);
  }

  /// Re-verifies a sample of accepted sets with mcs::reference MC-DBF
  /// and the core::reference PFH bounds.
  void check(Report& report) {
    const auto reqs = core::SafetyRequirements::do178b();
    std::size_t checked = 0;
    for (std::size_t i = 0; i < pool_.size() && checked < kCheckSets; ++i) {
      const Outcome& o = outcomes_[i];
      if (!o.done || !o.fts.success) continue;
      ++checked;
      const core::FtTaskSet& ts = pool_[i];
      const core::FtsResult& r = o.fts;
      const std::string where = "set " + std::to_string(i) + ": ";
      report.check(mcs::reference::analyze_mc_dbf(r.converted).schedulable,
                   where + "reference MC-DBF rejects the returned Gamma");
      if (r.n_adapt < r.n_hi) {
        report.check(!mcs::reference::analyze_mc_dbf(
                          core::convert_to_mc(ts, r.n_hi, r.n_lo, r.n_adapt + 1))
                          .schedulable,
                     where + "reference MC-DBF accepts Gamma(n2_HI + 1)");
      }
      const double s = o.scaling.max_scaling;
      if (s > 0.0 && s < kScalingCeiling) {
        report.check(
            mcs::reference::analyze_mc_dbf(scaled(r.converted, s)).schedulable,
            where + "reference MC-DBF rejects the set scaled by max_scaling");
        report.check(!mcs::reference::analyze_mc_dbf(
                          scaled(r.converted, s + kScalingTolerance))
                          .schedulable,
                     where + "reference MC-DBF accepts the set scaled just "
                             "above max_scaling");
      }
      const core::PerTaskProfile n = core::uniform_profile(ts, r.n_hi, r.n_lo);
      const core::PerTaskProfile na = core::uniform_profile(ts, r.n_adapt, 0);
      report.check(reqs.satisfied(ts.mapping().hi,
                                  core::reference::pfh_plain(ts, n, CritLevel::HI)),
                   where + "reference HI PFH misses the DO-178B requirement");
      report.check(reqs.satisfied(ts.mapping().lo,
                                  core::reference::pfh_lo_killing(ts, n, na)),
                   where + "reference LO PFH misses the DO-178B requirement");
    }
    report.check(checked > 0, "no accepted set to check");
  }

  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  static std::uint64_t counter(const char* name) {
    return obs::Registry::global().counter(name).value();
  }

  /// Keeps the first outcome per pool set; a repeat must agree with it.
  void keep(std::size_t i, Outcome o) {
    Outcome& slot = outcomes_[i];
    if (!slot.done) {
      slot = std::move(o);
      return;
    }
    if (slot.fts.success != o.fts.success || slot.fts.n_adapt != o.fts.n_adapt ||
        slot.scaling.max_scaling != o.scaling.max_scaling) {
      ++unstable_;
    }
  }

  /// Task generation and the core probe on the pool, outside any window.
  void probe_layers(Report& report) {
    taskgen::Rng rng(exec::derive_seed(args_.seed, 1));
    taskgen::GeneratorParams params;
    params.mapping = {Dal::B, Dal::D};
    double gen_us = 0.0;
    CoreProbe core_probe;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      params.target_utilization = grid_utilization(static_cast<int>(i % kUtilPoints));
      const double t0 = now_s();
      (void)taskgen::generate_task_set(params, rng);
      gen_us += (now_s() - t0) * 1e6;
      if (outcomes_[i].done) core_probe.run(pool_[i], fts_, &outcomes_[i].fts);
    }
    report.set("taskgen.us_per_set", gen_us / static_cast<double>(pool_.size()));
    core_probe.report_to(report);
    report.check(unstable_ == 0, "a repeated set gave a different outcome");
  }

  const Args& args_;
  Tracer tracer_;
  std::shared_ptr<TimedTest> test_;
  core::FtsConfig fts_;
  std::vector<core::FtTaskSet> pool_;
  std::vector<Outcome> outcomes_;
  std::size_t unstable_ = 0;
  double fts_s_ = 0.0, fts_test_s_ = 0.0, headroom_s_ = 0.0, item_s_ = 0.0;
  std::uint64_t accepted_ = 0;
  std::uint64_t conversions0_ = 0, analyses0_ = 0, evals0_ = 0;
};

}  // namespace

Report run_dbf_headroom(const Args& args) {
  Report report;
  DbfHeadroom w(args);
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
