/// sim-faults: sim::monte_carlo_campaign missions of FT-S-accepted
/// systems under EDF-VD with killing and with degradation. FT-S picks
/// each system's profiles at the nominal failure probability; the
/// missions then run with f raised, so that every mission re-executes
/// jobs and switches mode. The PFH bounds are evaluated at the raised f
/// (they bound the failure rate for any f at the given profiles). One
/// thread; one item is one released job; the latency unit is a mission.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <string>
#include <vector>

#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/core/profiles.hpp"
#include "ftmc/exec/seed.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/edf_vd_degradation.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/prob/poisson.hpp"
#include "ftmc/sim/engine.hpp"
#include "ftmc/sim/monte_carlo.hpp"
#include "ftmc/taskgen/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftmc;

/// Generated systems per adaptation kind (the FMS instance comes on top).
constexpr int kGeneratedPerKind = 120;
/// Mode switches one mission should expect; f is raised until a HI job
/// reaches its (n'+1)-th attempt this often, so a mission without a
/// switch has probability e^-30.
constexpr double kExpectedSwitches = 30.0;
constexpr double kMinSimFailureProb = 1e-3;
constexpr double kMaxSimFailureProb = 0.3;
/// Acceptance margin on U_MC: the simulator rounds to whole microseconds
/// (see ftmc::check's analysis-vs-sim properties).
constexpr double kUmcMargin = 1e-3;
constexpr double kDegradationFactor = 6.0;
constexpr int kSetupReps = 5;
/// Confidence of the Poisson interval each PFH check uses. Eq. (2) is
/// exact in expectation under always-WCET execution, and a run makes two
/// checks per system, so at sim_validation's 95% a run of 241 systems
/// would "refute" a correct bound several times by chance; at this level
/// a correct bound fails a run's checks with probability below 1e-3.
constexpr double kPfhConfidence = 1.0 - 2e-6;
/// Missions replayed through sim::Simulator for the per-task checks.
constexpr int kCheckMissions = 2;
/// Missions of one system cost alike, so latency samples cluster by
/// system; p95 leaves 12 of the 241 systems beyond it.
constexpr double kTailPct = 95.0;

struct System {
  std::string name;
  core::FtTaskSet ts_sim;  ///< the set with the raised failure probability
  core::FtsResult fts;     ///< FT-S at the nominal failure probability
  mcs::AdaptationKind kind = mcs::AdaptationKind::kKilling;
  std::vector<sim::SimTask> tasks;
  sim::SimConfig config;
  double pfh_bound_hi = 0.0;  ///< at the raised f
  double pfh_bound_lo = 0.0;
  // Accumulated over every mission of the run.
  std::uint64_t missions = 0;
  std::uint64_t switched_missions = 0;
  std::uint64_t failures_hi = 0;
  std::uint64_t failures_lo = 0;
  double hours = 0.0;
};

double hi_jobs_per_hour(const core::FtTaskSet& ts) {
  double jobs = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) == CritLevel::HI) jobs += 3.6e6 / ts[i].period;
  }
  return jobs;
}

core::FtTaskSet with_failure_prob(const core::FtTaskSet& ts, double f) {
  std::vector<core::FtTask> tasks = ts.tasks();
  for (core::FtTask& t : tasks) t.failure_prob = f;
  return core::FtTaskSet(std::move(tasks), ts.mapping());
}

/// FT-S configures one system; returns false if FT-S rejects it or its
/// profile could never switch mode (or only with an unrealistic f).
bool configure(const std::string& name, const core::FtTaskSet& ts,
               mcs::AdaptationKind kind, std::vector<System>& out) {
  core::FtsConfig cfg;
  cfg.adaptation.kind = kind;
  cfg.adaptation.degradation_factor = kDegradationFactor;
  cfg.adaptation.os_hours = 1.0;  // missions are one hour long
  const core::FtsResult r = core::ft_schedule(ts, cfg);
  if (!r.success || r.u_mc > 1.0 - kUmcMargin) return false;
  if (r.n_adapt < 1 || r.n_adapt >= r.n_hi) return false;
  const double f_sim = std::max(
      kMinSimFailureProb,
      std::pow(kExpectedSwitches / hi_jobs_per_hour(ts), 1.0 / r.n_adapt));
  if (f_sim > kMaxSimFailureProb) return false;

  System s;
  s.name = name;
  s.kind = kind;
  s.fts = r;
  s.ts_sim = with_failure_prob(ts, f_sim);
  const double x =
      kind == mcs::AdaptationKind::kDegradation
          ? mcs::analyze_edf_vd_degradation(r.converted, kDegradationFactor).x
          : mcs::analyze_edf_vd(r.converted).x;
  s.tasks = sim::build_sim_tasks(s.ts_sim, r.n_hi, r.n_lo, r.n_adapt,
                                 std::clamp(x, 0.001, 1.0));
  s.config.policy = sim::PolicyKind::kEdfVd;
  s.config.adaptation = kind;
  s.config.degradation_factor =
      kind == mcs::AdaptationKind::kDegradation ? kDegradationFactor : 1.0;
  s.pfh_bound_hi = core::pfh_plain(
      s.ts_sim, core::uniform_profile(s.ts_sim, r.n_hi, r.n_lo), CritLevel::HI);
  s.pfh_bound_lo = core::pfh_lo_under_adaptation(s.ts_sim, r.n_hi, r.n_lo,
                                                 r.n_adapt, cfg.adaptation);
  out.push_back(std::move(s));
  return true;
}

class SimFaults {
 public:
  explicit SimFaults(const Args& args) : args_(args) {}

  /// FT-S configuration of the simulated systems: the Table 4 FMS
  /// instance (degradation; killing leaves its level-C tasks unsafe) and
  /// Appendix-C sets drawn from the seed until each adaptation kind has
  /// kGeneratedPerKind systems (killing: HI = B, LO = D; degradation:
  /// HI = B, LO = C; U in [0.5, 0.9]; nominal f in {1e-3, 1e-5}).
  void setup() {
    systems_.clear();
    if (!configure("fms", fms::canonical_fms_instance(),
                   mcs::AdaptationKind::kDegradation, systems_)) {
      throw std::runtime_error("FT-S no longer accepts the FMS instance");
    }
    taskgen::Rng rng(exec::derive_seed(args_.seed, 2));
    std::uniform_real_distribution<double> util(0.5, 0.9);
    for (const mcs::AdaptationKind kind :
         {mcs::AdaptationKind::kKilling, mcs::AdaptationKind::kDegradation}) {
      const bool killing = kind == mcs::AdaptationKind::kKilling;
      int found = 0;
      for (int draw = 0; found < kGeneratedPerKind; ++draw) {
        // About one candidate in a hundred qualifies; the cap only stops
        // a generator that can no longer produce one.
        if (draw > 1000 * kGeneratedPerKind) {
          throw std::runtime_error("too few FT-S-accepted systems found");
        }
        taskgen::GeneratorParams p;
        p.target_utilization = util(rng);
        p.failure_prob = draw % 2 == 0 ? 1e-3 : 1e-5;
        p.mapping = {Dal::B, killing ? Dal::D : Dal::C};
        const std::string name = std::string(killing ? "kill-" : "degrade-") +
                                 std::to_string(found);
        if (configure(name, taskgen::generate_task_set(p, rng), kind,
                      systems_)) {
          ++found;
        }
      }
    }
  }

  void round(std::uint64_t index, RoundOutput& out) {
    for (std::size_t k = 0; k < systems_.size(); ++k) {
      System& s = systems_[k];
      sim::MonteCarloOptions opt;
      opt.missions = 1;
      opt.seed = mission_seed(index, k);
      sim::SimConfig config = s.config;
      config.registry = tracing_ ? &registry_ : nullptr;
      tracer_.next_trace();
      const double cpu0 = process_cpu_s();
      sim::MonteCarloResult r;
      {
        Tracer::Scope span(tracer_, "sim.monte_carlo_campaign");
        r = sim::monte_carlo_campaign(s.tasks, config, opt);
      }
      out.unit_us.push_back((process_cpu_s() - cpu0) * 1e6);
      out.items += r.job_failure_hi.trials + r.job_failure_lo.trials;
      // The traced window replays missions already counted.
      if (tracing_) continue;
      ++s.missions;
      s.switched_missions += r.trigger.successes;
      s.failures_hi += r.job_failure_hi.successes;
      s.failures_lo += r.job_failure_lo.successes;
      s.hours += r.simulated_hours;
    }
  }

  void set_tracing(bool on) {
    tracing_ = on;
    tracer_.enable(on);
    obs::Registry::global().enable(on);
  }

  void layer_metrics(Report& report, const Measured& m) {
    const double missions = static_cast<double>(m.traced.rounds * systems_.size());
    const auto count = [&](const char* name) {
      return static_cast<double>(registry_.counter(name).value());
    };
    double events = 0.0;
    for (const char* name :
         {"sim.releases", "sim.dispatches", "sim.preemptions",
          "sim.reexecutions", "sim.completions", "sim.job_failures",
          "sim.deadline_misses", "sim.mode_switches", "sim.mode_resets",
          "sim.kills"}) {
      events += count(name);
    }
    report.set("sim.events_per_mission", events / missions);
    // The untraced window ran exactly the missions the traced one
    // replayed, so its wall time prices the events without counters.
    report.set("sim.ns_per_event", m.plain.wall_s * 1e9 / events);
    report.set("sim.mode_switches_per_mission", count("sim.mode_switches") / missions);
    report.set("sim.reexecutions_per_mission", count("sim.reexecutions") / missions);
    report.set("sim.kills_per_mission", count("sim.kills") / missions);
    report.set("obs.trace_overhead", trace_overhead(m));
  }

  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

  void check(Report& report) {
    for (std::size_t k = 0; k < systems_.size(); ++k) {
      const System& s = systems_[k];
      const std::string where = s.name + ": ";
      report.check(s.switched_missions == s.missions,
                   where + "a mission ran without a mode switch");
      // Empirical PFH per level against the analytical bound, with the
      // exact Poisson (Garwood) interval of bench/sim_validation: the
      // bound is refuted only if it lies below the interval.
      for (const auto& [level, failures, bound] :
           {std::tuple{"HI", s.failures_hi, s.pfh_bound_hi},
            std::tuple{"LO", s.failures_lo, s.pfh_bound_lo}}) {
        const prob::PoissonInterval ci =
            prob::poisson_interval(failures, kPfhConfidence);
        report.check(bound >= ci.lower / s.hours,
                     where + level + " PFH bound " + std::to_string(bound) +
                         " below the empirical interval (" +
                         std::to_string(failures) + " failures in " +
                         std::to_string(s.hours) + " h)");
      }
      // Per-task statistics of a few missions, replayed through the
      // simulator with the seeds monte_carlo_campaign derives.
      for (int m = 0; m < kCheckMissions; ++m) {
        sim::SimConfig config = s.config;
        config.horizon = sim::kTicksPerHour;
        config.seed = exec::derive_seed(mission_seed(m, k), 0);
        sim::Simulator simulator(s.tasks, config);
        const sim::SimStats stats = simulator.run();
        for (std::size_t i = 0; i < stats.per_task.size(); ++i) {
          const sim::TaskStats& t = stats.per_task[i];
          report.check(t.deadline_misses == 0,
                       where + "task " + s.tasks[i].name +
                           " missed a deadline (Theorem 4.1)");
          report.check(t.completed + t.job_failures + t.killed <= t.released,
                       where + "task " + s.tasks[i].name +
                           ": completed + failed + killed > released");
        }
      }
    }
    // The campaign's result may not depend on its thread count.
    const System& s = systems_.front();
    sim::MonteCarloOptions opt;
    opt.missions = 4;
    opt.seed = exec::derive_seed(args_.seed, 3);
    opt.threads = 1;
    const sim::MonteCarloResult one = sim::monte_carlo_campaign(s.tasks, s.config, opt);
    opt.threads = 2;
    const sim::MonteCarloResult two = sim::monte_carlo_campaign(s.tasks, s.config, opt);
    report.check(std::memcmp(&one.pfh_hi, &two.pfh_hi, sizeof(double)) == 0 &&
                     std::memcmp(&one.pfh_lo, &two.pfh_lo, sizeof(double)) == 0 &&
                     one.trigger.successes == two.trigger.successes &&
                     one.job_failure_hi.successes == two.job_failure_hi.successes &&
                     one.job_failure_hi.trials == two.job_failure_hi.trials &&
                     one.job_failure_lo.successes == two.job_failure_lo.successes &&
                     one.job_failure_lo.trials == two.job_failure_lo.trials,
                 "monte_carlo_campaign differs between 1 and 2 threads");
  }

 private:
  [[nodiscard]] std::uint64_t mission_seed(std::uint64_t index,
                                           std::size_t system) const {
    return exec::derive_seed(args_.seed, 1000 + index * systems_.size() + system);
  }

  const Args& args_;
  std::vector<System> systems_;
  obs::Registry registry_;
  Tracer tracer_;
  bool tracing_ = false;
};

}  // namespace

Report run_sim_faults(const Args& args) {
  Report report;
  SimFaults w(args);
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
