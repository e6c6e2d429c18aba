#include "ftmc/rt/posix_host.hpp"

#include <time.h>

#include <algorithm>

#include "ftmc/common/contracts.hpp"

namespace ftmc::rt {

namespace {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

PosixHost::PosixHost(std::vector<HostTask> tasks,
                     const PosixHostConfig& config)
    : tasks_(std::move(tasks)),
      config_(config),
      rng_(config.seed),
      core_(config.core, static_cast<Host&>(*this)) {
  FTMC_EXPECTS(!tasks_.empty(), "posix host needs at least one task");
  FTMC_EXPECTS(config_.horizon > 0, "posix host horizon must be positive");
  FTMC_EXPECTS(config_.time_scale >= 0.0, "time scale must be non-negative");
  for (const HostTask& t : tasks_) {
    FTMC_EXPECTS(t.failure_prob >= 0.0 && t.failure_prob < 1.0,
                 "task '" + t.name + "': failure probability out of range");
    FTMC_EXPECTS(t.checkpoint_overhead >= 0.0 && t.checkpoint_overhead < 1.0,
                 "task '" + t.name + "': checkpoint overhead out of range");
    core_.add_task(t);  // structural validation + admission
  }
  core_.start();
  next_release_.assign(tasks_.size(), 0);
  release_queue_.reserve(4 * tasks_.size() + 16);
  result_.per_task.resize(tasks_.size());
  if (config_.trace_capacity > 0) {
    result_.trace.reserve(config_.trace_capacity);
  }
}

Tick PosixHost::sample_segment_time(std::uint32_t task) {
  // A real-time host has no execution-time oracle: it budgets the WCET of
  // one segment, exactly like the simulator's kAlwaysWcet model.
  const HostTask& t = tasks_[task];
  return segment_wcet(t.wcet, t.segments, t.checkpoint_overhead);
}

bool PosixHost::sample_fault(std::uint32_t task, int faults_so_far) {
  const HostTask& t = tasks_[task];
  switch (config_.fault_model) {
    case FaultModel::kNone:
      return false;
    case FaultModel::kExhaustBudget:
      return faults_so_far < t.max_attempts - 1;
    case FaultModel::kBernoulli:
      break;
  }
  // Same draw as the simulator host makes for this segment: with
  // kAlwaysWcet execution and periodic arrivals the two RNG streams are
  // consumed in the same order, so a seed-matched sim run replays this
  // run's faults exactly.
  std::bernoulli_distribution fault(
      segment_failure_prob(t.failure_prob, t.segments));
  return fault(rng_);
}

void PosixHost::emit(const Event& event) {
  if (result_.trace.size() < config_.trace_capacity) {
    result_.trace.push_back(event);
  }
}

void PosixHost::on_context_switch(std::uint32_t /*task*/,
                                  std::uint64_t /*job*/, Tick now) {
  ++result_.context_switches;
  if (config_.time_scale <= 0.0 ||
      result_.switch_lateness_us.size() >=
          result_.switch_lateness_us.capacity()) {
    return;
  }
  // How far behind the paced schedule the switch really happened: the
  // dispatch latency a deployed target would observe. Clamped at 0 — a
  // switch can only be late, never early, relative to its decision instant.
  const std::int64_t target_ns =
      wall_start_ns_ + static_cast<std::int64_t>(
                           config_.time_scale * static_cast<double>(now) * 1e3);
  result_.switch_lateness_us.push_back(
      std::max<std::int64_t>(0, (monotonic_ns() - target_ns) / 1000));
}

void PosixHost::push_release(std::uint32_t task_index, Tick at) {
  next_release_[task_index] = at;
  release_queue_.push_back({at, ++event_seq_, task_index});
  std::push_heap(release_queue_.begin(), release_queue_.end(),
                 [](const ReleaseEntry& a, const ReleaseEntry& b) {
                   return a.time != b.time ? a.time > b.time : a.seq > b.seq;
                 });
}

void PosixHost::schedule_next_release(std::uint32_t task_index, Tick from) {
  // Strictly periodic arrivals at the mode-dependent rate (the core folds
  // the d_f stretch of LO tasks in HI mode into current_period()).
  push_release(task_index,
               from + static_cast<Tick>(core_.current_period(task_index)));
}

void PosixHost::on_mode_change(CritLevel mode, Tick now) {
  if (mode == CritLevel::HI) {
    if (config_.core.adaptation == AdaptationKind::kKilling) {
      for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].crit == CritLevel::LO) next_release_[i] = kNever;
      }
    } else if (config_.core.adaptation == AdaptationKind::kDegradation) {
      for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
        const HostTask& t = tasks_[i];
        if (t.crit != CritLevel::LO || next_release_[i] == kNever) {
          continue;
        }
        push_release(i, next_release_[i] +
                            static_cast<Tick>(
                                (config_.core.degradation_factor - 1.0) *
                                static_cast<double>(t.period)));
      }
    }
    return;
  }
  if (config_.core.adaptation == AdaptationKind::kKilling) {
    for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].crit == CritLevel::LO && next_release_[i] == kNever) {
        push_release(i, now);
      }
    }
  }
}

void PosixHost::pace_to(Tick t) {
  if (config_.time_scale <= 0.0) return;
  const std::int64_t target_ns =
      wall_start_ns_ +
      static_cast<std::int64_t>(config_.time_scale *
                                static_cast<double>(t) * 1e3);
  timespec target{};
  target.tv_sec = target_ns / 1'000'000'000;
  target.tv_nsec = target_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &target, nullptr) !=
         0) {
    // EINTR: resume the absolute sleep.
  }
  const std::int64_t lateness_ns = monotonic_ns() - target_ns;
  if (lateness_ns / 1000 > result_.max_wall_lateness_us) {
    result_.max_wall_lateness_us = lateness_ns / 1000;
  }
}

PosixResult PosixHost::run() {
  FTMC_EXPECTS(!ran_, "PosixHost::run may only be called once");
  ran_ = true;
  result_.horizon = config_.horizon;
  if (config_.time_scale > 0.0) {
    // All sample storage up front: on_context_switch must not allocate.
    result_.switch_lateness_us.reserve(kMaxSwitchSamples);
  }

  const auto heap_greater = [](const ReleaseEntry& a, const ReleaseEntry& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  // Synchronous release at t = 0: the critical instant, and the phasing
  // the simulator replays.
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    next_release_[i] = 0;
    release_queue_.push_back({0, ++event_seq_, i});
  }
  std::make_heap(release_queue_.begin(), release_queue_.end(), heap_greater);

  wall_start_ns_ = monotonic_ns();
  Tick now = 0;

  const auto pop_due_releases = [&](Tick time) {
    while (!release_queue_.empty() && release_queue_.front().time <= time) {
      const ReleaseEntry ev = release_queue_.front();
      std::pop_heap(release_queue_.begin(), release_queue_.end(),
                    heap_greater);
      release_queue_.pop_back();
      if (next_release_[ev.task] != ev.time) continue;  // stale
      core_.on_release(ev.task, ev.time);
      schedule_next_release(ev.task, ev.time);
    }
  };

  while (now < config_.horizon &&
         !stop_.load(std::memory_order_relaxed)) {
    if (!core_.has_ready()) {
      core_.on_idle(now);
      Tick next = kNever;
      while (!release_queue_.empty()) {
        const ReleaseEntry& top = release_queue_.front();
        if (next_release_[top.task] != top.time) {
          std::pop_heap(release_queue_.begin(), release_queue_.end(),
                        heap_greater);
          release_queue_.pop_back();
          continue;
        }
        next = top.time;
        break;
      }
      if (next == kNever || next >= config_.horizon) break;
      pace_to(next);
      now = next;
      pop_due_releases(now);
      continue;
    }

    core_.dispatch(now);

    const Tick completion = now + core_.running_remaining();
    Tick next_rel = kNever;
    if (!release_queue_.empty()) next_rel = release_queue_.front().time;
    const Tick until = std::min({completion, next_rel, config_.horizon});

    // "Execute" the segment: burn scaled wall time until the next
    // decision instant.
    pace_to(until);
    result_.busy_time += until - now;
    core_.run_for(until - now);
    now = until;
    if (now >= config_.horizon) break;

    if (core_.running_remaining() == 0) core_.on_segment_boundary(now);
    pop_due_releases(now);
  }

  result_.counters = core_.counters();
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    result_.per_task[i] = core_.task_counters(i);
  }
  result_.wall_seconds =
      static_cast<double>(monotonic_ns() - wall_start_ns_) / 1e9;
  core_.black_box().copy_to(result_.blackbox);
  result_.blackbox_total = core_.black_box().total();
  result_.blackbox_admissions = core_.black_box_admissions();
  return result_;
}

}  // namespace ftmc::rt
