#include "ftmc/sim/engine.hpp"

#include <algorithm>
#include <limits>

#include "ftmc/common/contracts.hpp"

namespace ftmc::sim {

Simulator::Simulator(std::vector<rt::HostTask> tasks, SimConfig config)
    : tasks_(std::move(tasks)), config_(config), rng_(config.seed) {
  FTMC_EXPECTS(!tasks_.empty(), "simulator needs at least one task");
  FTMC_EXPECTS(config_.horizon > 0, "simulation horizon must be positive");
  for (const rt::HostTask& t : tasks_) {
    FTMC_EXPECTS(t.period > 0 && t.deadline > 0 && t.wcet > 0,
                 "task '" + t.name + "': malformed timing parameters");
    FTMC_EXPECTS(t.max_attempts >= 1,
                 "task '" + t.name + "': needs at least one attempt");
    FTMC_EXPECTS(t.failure_prob >= 0.0 && t.failure_prob < 1.0,
                 "task '" + t.name + "': failure probability out of range");
    FTMC_EXPECTS(t.virtual_deadline > 0 && t.virtual_deadline <= t.deadline,
                 "task '" + t.name + "': virtual deadline out of range");
    FTMC_EXPECTS(t.segments >= 1,
                 "task '" + t.name + "': needs at least one segment");
    FTMC_EXPECTS(t.checkpoint_overhead >= 0.0 && t.checkpoint_overhead < 1.0,
                 "task '" + t.name + "': checkpoint overhead out of range");
  }
  if (config_.adaptation == AdaptationKind::kDegradation) {
    FTMC_EXPECTS(config_.degradation_factor >= 1.0,
                 "degradation factor must be >= 1");
  }
  if (config_.exec_model == ExecTimeModel::kUniform) {
    FTMC_EXPECTS(config_.exec_min_fraction > 0.0 &&
                     config_.exec_min_fraction <= 1.0,
                 "exec_min_fraction must lie in (0, 1]");
  }
  stats_.per_task.resize(tasks_.size());
  next_release_.assign(tasks_.size(), 0);
  // Event arena: one live release per task, plus slack for the stale
  // duplicates mode changes leave behind. Grows only in pathological
  // kill/re-admit churn.
  release_queue_.reserve(tasks_.size() * 4 + 8);

  // The scheduling core. The DES host opts into job-pool growth: an
  // overloaded scenario may queue an unbounded ready backlog, and a
  // simulator prefers completing the run over enforcing the embedded
  // no-alloc contract.
  rt::CoreConfig core_config;
  core_config.policy = config_.policy;
  core_config.adaptation = config_.adaptation;
  core_config.degradation_factor = config_.degradation_factor;
  core_config.mode_reset_on_idle = config_.mode_reset_on_idle;
  core_config.max_jobs = 64;
  core_config.allow_job_growth = true;
  core_config.black_box_capacity = config_.black_box_capacity;
  core_.emplace(core_config, static_cast<rt::Host&>(*this));
  for (const rt::HostTask& t : tasks_) core_->add_task(t);
  core_->start();

  if (config_.registry != nullptr) {
    obs::Registry& reg = *config_.registry;
    Metrics m;
    m.releases = reg.counter("sim.releases");
    m.dispatches = reg.counter("sim.dispatches");
    m.preemptions = reg.counter("sim.preemptions");
    m.reexecutions = reg.counter("sim.reexecutions");
    m.completions = reg.counter("sim.completions");
    m.job_failures = reg.counter("sim.job_failures");
    m.deadline_misses = reg.counter("sim.deadline_misses");
    m.mode_switches = reg.counter("sim.mode_switches");
    m.mode_resets = reg.counter("sim.mode_resets");
    m.kills = reg.counter("sim.kills");
    m.response_us.reserve(tasks_.size());
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const std::string& name = tasks_[i].name;
      m.response_us.push_back(reg.histogram(
          "sim.response_us." +
          (name.empty() ? "task" + std::to_string(i) : name)));
    }
    metrics_.emplace(std::move(m));
  }
  if (config_.trace_capacity > 0) record_flags_ |= kRecordTrace;
  if (metrics_) record_flags_ |= kRecordMetrics;
}

// Out of line and cold: record() itself is a single byte test (see
// engine.hpp), so a run with neither tracing nor metrics attached pays
// nothing measurable per event.
__attribute__((noinline, cold)) void Simulator::record_slow(
    const rt::Event& event) {
  if ((record_flags_ & kRecordMetrics) != 0) {
    // Metrics piggyback on the trace-event stream but don't need (or
    // grow) the trace buffer.
    switch (event.kind) {
      case rt::EventKind::kRelease: metrics_->releases.inc(); break;
      case rt::EventKind::kStart: metrics_->dispatches.inc(); break;
      case rt::EventKind::kPreempt: metrics_->preemptions.inc(); break;
      case rt::EventKind::kAttemptFail: metrics_->reexecutions.inc(); break;
      case rt::EventKind::kComplete: metrics_->completions.inc(); break;
      case rt::EventKind::kJobFail: metrics_->job_failures.inc(); break;
      case rt::EventKind::kDeadlineMiss:
        metrics_->deadline_misses.inc();
        break;
      case rt::EventKind::kModeSwitch: metrics_->mode_switches.inc(); break;
      case rt::EventKind::kModeReset: metrics_->mode_resets.inc(); break;
      case rt::EventKind::kKill: metrics_->kills.inc(); break;
    }
  }
  if ((record_flags_ & kRecordTrace) != 0 &&
      trace_.size() < config_.trace_capacity) {
    trace_.push_back(event);
  }
}

Tick Simulator::sample_segment_time(std::uint32_t task) {
  const rt::HostTask& t = tasks_[task];
  const Tick nominal =
      rt::segment_wcet(t.wcet, t.segments, t.checkpoint_overhead);
  if (config_.exec_model == ExecTimeModel::kAlwaysWcet) return nominal;
  std::uniform_real_distribution<double> dist(config_.exec_min_fraction, 1.0);
  const Tick sampled = static_cast<Tick>(dist(rng_) *
                                         static_cast<double>(nominal));
  return std::max<Tick>(sampled, 1);
}

bool Simulator::sample_fault(std::uint32_t task, int faults_so_far) {
  const rt::HostTask& t = tasks_[task];
  switch (config_.fault_adversary) {
    case rt::FaultModel::kNone:
      return false;
    case rt::FaultModel::kExhaustBudget:
      // Worst-case adversary: fail every segment execution while the job
      // still has retry budget left, succeed on the last permitted one.
      return faults_so_far < t.max_attempts - 1;
    case rt::FaultModel::kBernoulli:
      break;
  }
  std::bernoulli_distribution fault(
      rt::segment_failure_prob(t.failure_prob, t.segments));
  return fault(rng_);
}

void Simulator::emit(const rt::Event& event) {
  if (event.kind == rt::EventKind::kComplete && metrics_) {
    metrics_->response_us[event.task].observe(
        static_cast<double>(event.time - event.release));
  }
  record(event);
}

void Simulator::push_release(std::uint32_t task_index, Tick at) {
  next_release_[task_index] = at;
  const Event ev{at, ++event_seq_, task_index};
  // Keep the queue sorted descending by (time, seq); back() stays the
  // earliest pending event. (time, seq) is a total order — seq is unique —
  // so the resulting pop sequence is exactly the old heap's.
  const auto pos =
      std::upper_bound(release_queue_.begin(), release_queue_.end(), ev,
                       [](const Event& a, const Event& b) { return a > b; });
  release_queue_.insert(pos, ev);
}

void Simulator::on_mode_change(CritLevel mode, Tick now) {
  if (mode == CritLevel::HI) {
    if (config_.adaptation == AdaptationKind::kKilling) {
      // Suppress future LO releases.
      for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].crit == CritLevel::LO) next_release_[i] = kNever;
      }
    } else if (config_.adaptation == AdaptationKind::kDegradation) {
      // Pending next releases are pushed out so that the inter-arrival
      // from the *previous* release grows to d_f * T.
      for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
        const rt::HostTask& task = tasks_[i];
        if (task.crit != CritLevel::LO || next_release_[i] == kNever) {
          continue;
        }
        push_release(i, next_release_[i] +
                            static_cast<Tick>(
                                (config_.degradation_factor - 1.0) *
                                static_cast<double>(task.period)));
      }
    }
    return;
  }
  // HI -> LO reset at an idle instant.
  if (config_.adaptation == AdaptationKind::kKilling) {
    // Re-admit LO tasks from this idle instant on.
    for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].crit == CritLevel::LO && next_release_[i] == kNever) {
        push_release(i, now);
      }
    }
  }
}

void Simulator::schedule_next_release(std::uint32_t task_index, Tick from) {
  // current_period() folds in the d_f stretch of LO tasks in HI mode.
  const double period = core_->current_period(task_index);
  Tick gap = static_cast<Tick>(period);
  if (config_.sporadic_arrivals) {
    std::exponential_distribution<double> jitter(
        1.0 / (config_.jitter_fraction * period));
    gap += static_cast<Tick>(jitter(rng_));
  }
  push_release(task_index, from + gap);
}

SimStats Simulator::run() {
  FTMC_EXPECTS(!ran_, "Simulator::run may only be called once");
  ran_ = true;
  stats_.horizon = config_.horizon;

  // Synchronous release at t = 0 (the critical instant), or uniformly
  // random phases when configured.
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    Tick phase = 0;
    if (config_.random_phasing) {
      std::uniform_int_distribution<Tick> dist(0, tasks_[i].period - 1);
      phase = dist(rng_);
    }
    next_release_[i] = phase;
    release_queue_.push_back({phase, ++event_seq_, i});
  }
  std::sort(release_queue_.begin(), release_queue_.end(),
            [](const Event& a, const Event& b) { return a > b; });

  Tick now = 0;
  rt::Core& core = *core_;

  const auto pop_due_releases = [&](Tick time) {
    while (!release_queue_.empty() && release_queue_.back().time <= time) {
      const Event ev = release_queue_.back();
      release_queue_.pop_back();
      // Stale entries (task postponed/suppressed since scheduling).
      if (next_release_[ev.task] != ev.time) continue;
      core.on_release(ev.task, ev.time);
      schedule_next_release(ev.task, ev.time);
    }
  };

  while (now < config_.horizon) {
    if (!core.has_ready()) {
      // Idle until the next release (if any within the horizon).
      core.on_idle(now);
      Tick next = kNever;
      while (!release_queue_.empty()) {
        const Event& top = release_queue_.back();
        if (next_release_[top.task] != top.time) {
          release_queue_.pop_back();
          continue;
        }
        next = top.time;
        break;
      }
      if (next == kNever || next >= config_.horizon) break;
      now = next;
      pop_due_releases(now);
      continue;
    }

    core.dispatch(now);

    const Tick completion = now + core.running_remaining();
    Tick next_rel = kNever;
    if (!release_queue_.empty()) next_rel = release_queue_.back().time;
    const Tick until = std::min({completion, next_rel, config_.horizon});

    stats_.busy_time += until - now;
    core.run_for(until - now);
    now = until;
    if (now >= config_.horizon) break;

    if (core.running_remaining() == 0) core.on_segment_boundary(now);
    pop_due_releases(now);
  }

  // Fold the core's policy-level counters into the run statistics.
  const rt::CoreCounters& cc = core.counters();
  stats_.preemptions = cc.preemptions;
  stats_.mode_switches = cc.mode_switches;
  stats_.mode_resets = cc.mode_resets;
  stats_.first_mode_switch = cc.first_mode_switch;
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    stats_.per_task[i] = core.task_counters(i);
  }
  return stats_;
}

std::uint64_t Simulator::failure_count(const SimStats& stats,
                                       CritLevel level) const {
  std::uint64_t failures = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].crit == level) {
      failures += stats.per_task[i].temporal_failures();
    }
  }
  return failures;
}

double Simulator::empirical_pfh(const SimStats& stats,
                                CritLevel level) const {
  const double hours = stats.simulated_hours();
  FTMC_EXPECTS(hours > 0.0, "empirical PFH needs a positive horizon");
  return static_cast<double>(failure_count(stats, level)) / hours;
}

SimStats simulate(const core::FtTaskSet& ts, int n_hi, int n_lo,
                  int n_adapt_hi, double virtual_deadline_factor,
                  const SimConfig& config) {
  Simulator sim(build_sim_tasks(ts, n_hi, n_lo, n_adapt_hi,
                                virtual_deadline_factor),
                config);
  return sim.run();
}

}  // namespace ftmc::sim
