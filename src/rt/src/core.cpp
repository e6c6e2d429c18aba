#include "ftmc/rt/core.hpp"

#include <algorithm>

#include "ftmc/common/contracts.hpp"

namespace ftmc::rt {

// RecordKind values 0–9 mirror EventKind one-to-one, so publish() can cast
// the kind straight through and a black-box dump replays against the host
// event stream by sequence number alone.
static_assert(static_cast<int>(RecordKind::kRelease) ==
              static_cast<int>(EventKind::kRelease));
static_assert(static_cast<int>(RecordKind::kStart) ==
              static_cast<int>(EventKind::kStart));
static_assert(static_cast<int>(RecordKind::kPreempt) ==
              static_cast<int>(EventKind::kPreempt));
static_assert(static_cast<int>(RecordKind::kAttemptFail) ==
              static_cast<int>(EventKind::kAttemptFail));
static_assert(static_cast<int>(RecordKind::kComplete) ==
              static_cast<int>(EventKind::kComplete));
static_assert(static_cast<int>(RecordKind::kJobFail) ==
              static_cast<int>(EventKind::kJobFail));
static_assert(static_cast<int>(RecordKind::kDeadlineMiss) ==
              static_cast<int>(EventKind::kDeadlineMiss));
static_assert(static_cast<int>(RecordKind::kModeSwitch) ==
              static_cast<int>(EventKind::kModeSwitch));
static_assert(static_cast<int>(RecordKind::kModeReset) ==
              static_cast<int>(EventKind::kModeReset));
static_assert(static_cast<int>(RecordKind::kKill) ==
              static_cast<int>(EventKind::kKill));

Core::Core(const CoreConfig& config, Host& host)
    : config_(config), host_(host), black_box_(config.black_box_capacity) {
  if (config_.adaptation == AdaptationKind::kDegradation) {
    FTMC_EXPECTS(config_.degradation_factor >= 1.0,
                 "degradation factor must be >= 1");
  }
  FTMC_EXPECTS(config_.max_jobs > 0, "job pool must have at least one slot");
}

void Core::publish(const Event& e) {
  black_box_.record(e.time, static_cast<RecordKind>(e.kind), e.task, e.job,
                    e.detail, e.release, e.abs_deadline);
  host_.emit(e);
}

Admission Core::add_task(const TaskParams& params) {
  FTMC_EXPECTS(!started_, "add_task is only valid before start()");
  FTMC_EXPECTS(params.period > 0 && params.deadline > 0 && params.wcet > 0,
               "task: malformed timing parameters");
  FTMC_EXPECTS(params.max_attempts >= 1, "task: needs at least one attempt");
  FTMC_EXPECTS(params.adapt_threshold >= 0,
               "task: adaptation threshold must be non-negative");
  FTMC_EXPECTS(params.virtual_deadline > 0 &&
                   params.virtual_deadline <= params.deadline,
               "task: virtual deadline out of range");
  FTMC_EXPECTS(params.segments >= 1, "task: needs at least one segment");
  // The candidate's index in add_task order; rejected candidates consume
  // an index too, so the black box names every verdict unambiguously.
  const auto candidate = static_cast<std::uint32_t>(black_box_admissions_);
  if (config_.admission_control) {
    const Admission verdict = admission_check(params);
    if (!verdict.admitted) {
      black_box_.record(0, RecordKind::kReject, candidate, 0, 0, 0, 0);
      ++black_box_admissions_;
      return verdict;
    }
  }
  black_box_.record(0, RecordKind::kAdmit, candidate, 0, 0, 0, 0);
  ++black_box_admissions_;
  tasks_.push_back(params);
  return Admission{};
}

Admission Core::admission_check(const TaskParams& candidate) const {
  // Density-based sufficient admission test, FreeRTOS-EDF style: cheap
  // enough for task creation on a live system. Each task contributes its
  // full re-execution budget n_i * C_i against the effective deadline of
  // each mode; density <= 1 is sufficient for EDF with D <= T. The
  // analysis-grade tests (EDF-VD utilization, MC-DBF) live in ftmc::mcs
  // and are what simulation hosts validate against instead.
  double lo_density = 0.0;  // LO mode: HI jobs keyed by virtual deadline
  double hi_density = 0.0;  // HI mode: true deadlines, LO degraded or dead
  const auto contribute = [&](const TaskParams& t) {
    const double budget =
        static_cast<double>(t.max_attempts) * static_cast<double>(t.wcet);
    const double lo_deadline =
        (t.crit == CritLevel::HI && config_.policy == PolicyKind::kEdfVd)
            ? static_cast<double>(t.virtual_deadline)
            : static_cast<double>(t.deadline);
    lo_density +=
        budget / std::min(lo_deadline, static_cast<double>(t.period));
    const double hi_window =
        std::min(static_cast<double>(t.deadline),
                 static_cast<double>(t.period));
    if (t.crit == CritLevel::HI) {
      hi_density += budget / hi_window;
    } else if (config_.adaptation == AdaptationKind::kDegradation) {
      hi_density += budget / (config_.degradation_factor * hi_window);
    } else if (config_.adaptation == AdaptationKind::kNone) {
      hi_density += budget / hi_window;
    }
    // kKilling: LO tasks place no demand in HI mode.
  };
  for (const TaskParams& t : tasks_) contribute(t);
  contribute(candidate);
  if (lo_density > 1.0) {
    return Admission{false, "LO-mode density would exceed 1"};
  }
  if (hi_density > 1.0) {
    return Admission{false, "HI-mode density would exceed 1"};
  }
  return Admission{};
}

void Core::start() {
  FTMC_EXPECTS(!started_, "start may only be called once");
  FTMC_EXPECTS(!tasks_.empty(), "core needs at least one task");
  started_ = true;
  // Everything the runtime will touch is sized here; from now on the only
  // allocation path is jobs_ growth, and only with allow_job_growth.
  jobs_.reserve(config_.max_jobs);
  ready_.reserve(config_.max_jobs);
  free_slots_.reserve(config_.max_jobs);
  next_job_id_.assign(tasks_.size(), 0);
  task_counters_.assign(tasks_.size(), TaskCounters{});
}

Tick Core::job_key(std::size_t slot) const {
  const Job& job = jobs_[slot];
  const TaskParams& task = tasks_[job.task];
  switch (config_.policy) {
    case PolicyKind::kEdf:
      return job.abs_deadline;
    case PolicyKind::kEdfVd:
      // Virtual deadlines for HI jobs while in LO mode; true deadlines
      // for everyone once the system has switched.
      if (task.crit == CritLevel::HI && mode_ == CritLevel::LO) {
        return job.release + task.virtual_deadline;
      }
      return job.abs_deadline;
    case PolicyKind::kFixedPriority:
      return static_cast<Tick>(task.priority);
  }
  FTMC_ENSURES(false, "unreachable policy kind");
  return 0;
}

bool Core::job_before(std::size_t a, std::size_t b) const {
  const Tick ka = job_key(a);
  const Tick kb = job_key(b);
  if (ka != kb) return ka < kb;
  const Job& ja = jobs_[a];
  const Job& jb = jobs_[b];
  // Documented tie order: criticality (HI first), task id, job id.
  const int ca = tasks_[ja.task].crit == CritLevel::HI ? 0 : 1;
  const int cb = tasks_[jb.task].crit == CritLevel::HI ? 0 : 1;
  if (ca != cb) return ca < cb;
  if (ja.task != jb.task) return ja.task < jb.task;
  return ja.id < jb.id;
}

std::size_t Core::pick_ready_job() const {
  // Linear scan instead of a sorted structure on purpose: task counts are
  // small, the scan is branch-predictable, and keeping ready_ in release
  // order makes the kill sweep of enter_hi_mode emit kKill events in
  // release order — part of the replay contract.
  std::size_t best = kIdle;
  for (const std::size_t slot : ready_) {
    if (best == kIdle || job_before(slot, best)) best = slot;
  }
  return best;
}

void Core::on_release(std::uint32_t task_index, Tick now) {
  const TaskParams& task = tasks_[task_index];
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    FTMC_EXPECTS(jobs_.size() < config_.max_jobs || config_.allow_job_growth,
                 "rt::Core job pool exhausted (raise CoreConfig::max_jobs "
                 "or enable allow_job_growth)");
    slot = jobs_.size();
    jobs_.emplace_back();
  }
  Job& job = jobs_[slot];
  job = Job{};
  job.task = task_index;
  job.id = next_job_id_[task_index]++;
  job.release = now;
  // Degraded service (elastic model): LO deadlines stay implicit with
  // respect to the *stretched* period, so a LO job released in HI mode is
  // due d_f * D after release, not D.
  Tick relative_deadline = task.deadline;
  if (task.crit == CritLevel::LO && mode_ == CritLevel::HI &&
      config_.adaptation == AdaptationKind::kDegradation) {
    relative_deadline = static_cast<Tick>(
        config_.degradation_factor * static_cast<double>(task.deadline));
  }
  job.abs_deadline = now + relative_deadline;
  job.remaining = host_.sample_segment_time(task_index);
  job.alive = true;
  ready_.push_back(slot);
  ++task_counters_[task_index].released;
  publish({now, EventKind::kRelease, task_index, job.id, 0, job.release,
              job.abs_deadline});

  // An adaptation threshold of 0 means the trigger fires as soon as any
  // HI job is about to execute at all (Sec. 3.3 allows n' = 0).
  if (task.crit == CritLevel::HI && mode_ == CritLevel::LO &&
      task.adapt_threshold == 0) {
    enter_hi_mode(now);
  }
}

void Core::enter_hi_mode(Tick now) {
  if (mode_ == CritLevel::HI) return;
  mode_ = CritLevel::HI;
  ++counters_.mode_switches;
  if (counters_.first_mode_switch == kNever) {
    counters_.first_mode_switch = now;
  }
  publish({now, EventKind::kModeSwitch, 0, 0, 0, 0, 0});

  if (config_.adaptation == AdaptationKind::kKilling) {
    // Discard all current LO jobs; the host suppresses future LO
    // releases in on_mode_change.
    for (auto it = ready_.begin(); it != ready_.end();) {
      Job& job = jobs_[*it];
      if (tasks_[job.task].crit == CritLevel::LO) {
        ++task_counters_[job.task].killed;
        publish({now, EventKind::kKill, job.task, job.id, 0, job.release,
                    job.abs_deadline});
        job.alive = false;
        free_slots_.push_back(*it);
        it = ready_.erase(it);
      } else {
        ++it;
      }
    }
  } else if (config_.adaptation == AdaptationKind::kDegradation) {
    // Already-released LO jobs keep running but adopt the degraded
    // implicit deadline (release + d_f * D): the mode switch relaxes both
    // their rate and their due date. The host stretches *pending* next
    // releases in on_mode_change so the inter-arrival from the previous
    // release grows to d_f * T.
    for (const std::size_t slot : ready_) {
      Job& job = jobs_[slot];
      const TaskParams& task = tasks_[job.task];
      if (task.crit != CritLevel::LO) continue;
      job.abs_deadline =
          job.release + static_cast<Tick>(config_.degradation_factor *
                                          static_cast<double>(task.deadline));
    }
  }
  // kNone: the mode switch has no effect on LO tasks.
  host_.on_mode_change(CritLevel::HI, now);
}

std::size_t Core::dispatch(Tick now) {
  FTMC_EXPECTS(!ready_.empty(), "dispatch with an empty ready set");
  const std::size_t pick = pick_ready_job();
  // Note: running_ may reference a slot whose job was killed (and even
  // recycled) since the last dispatch; the alive test below reproduces the
  // simulator's historical preemption accounting exactly.
  if (running_ != kIdle && running_ != pick && jobs_[running_].alive) {
    ++counters_.preemptions;
    const Job& prev = jobs_[running_];
    publish({now, EventKind::kPreempt, prev.task, prev.id, 0,
                prev.release, prev.abs_deadline});
  }
  if (running_ != pick) {
    const Job& job = jobs_[pick];
    publish({now, EventKind::kStart, job.task, job.id,
                static_cast<std::uint32_t>(job.faults + 1), job.release,
                job.abs_deadline});
    host_.on_context_switch(job.task, job.id, now);
  }
  running_ = pick;
  return pick;
}

Tick Core::running_remaining() const {
  FTMC_EXPECTS(running_ != kIdle, "no job is running");
  return jobs_[running_].remaining;
}

void Core::run_for(Tick delta) {
  FTMC_EXPECTS(running_ != kIdle, "run_for without a running job");
  jobs_[running_].remaining -= delta;
}

void Core::on_segment_boundary(Tick now) {
  FTMC_EXPECTS(running_ != kIdle, "on_segment_boundary without a running job");
  const std::size_t slot = running_;
  Job& job = jobs_[slot];
  const std::uint32_t task_index = job.task;
  const TaskParams& task = tasks_[task_index];
  TaskCounters& tc = task_counters_[task_index];
  ++tc.attempts;  // one completed segment execution

  const bool faulted = host_.sample_fault(task_index, job.faults);
  if (!faulted) {
    // Sanity check passed for this segment.
    ++job.segments_done;
    if (job.segments_done < task.segments) {
      job.remaining = host_.sample_segment_time(task_index);
      return;  // next segment; job keeps the processor slot
    }
    // All segments done: job complete.
    ++tc.completed;
    const Tick response = now - job.release;
    tc.max_response = std::max(tc.max_response, response);
    tc.total_response += response;
    if (now > job.abs_deadline) {
      ++tc.deadline_misses;
      publish({now, EventKind::kDeadlineMiss, task_index, job.id, 0,
                  job.release, job.abs_deadline});
    }
    publish({now, EventKind::kComplete, task_index, job.id, 0,
                job.release, job.abs_deadline});
  } else {
    ++tc.faults;
    ++job.faults;
    publish({now, EventKind::kAttemptFail, task_index, job.id,
                static_cast<std::uint32_t>(job.faults), job.release,
                job.abs_deadline});
    // max_attempts bounds the total faults a job may absorb: for full
    // re-execution (segments == 1) this is the paper's "execute at most
    // n_i times"; for checkpointing it is the retry budget R = n - 1.
    if (job.faults < task.max_attempts) {
      // The (n' + 1)-th execution of a HI job triggers the mode switch
      // (Sec. 3.3), i.e. once adapt_threshold faults have accumulated.
      if (task.crit == CritLevel::HI && mode_ == CritLevel::LO &&
          job.faults >= task.adapt_threshold) {
        enter_hi_mode(now);
      }
      job.remaining = host_.sample_segment_time(task_index);
      return;  // re-run the faulted segment
    }
    ++tc.job_failures;
    publish({now, EventKind::kJobFail, task_index, job.id, 0, job.release,
                job.abs_deadline});
  }
  // Retire the job (success or exhausted attempts).
  retire(slot);
}

void Core::retire(std::size_t slot) {
  jobs_[slot].alive = false;
  ready_.erase(std::find(ready_.begin(), ready_.end(), slot));
  free_slots_.push_back(slot);
  running_ = kIdle;
}

void Core::on_idle(Tick now) {
  if (running_ != kIdle) {
    running_ = kIdle;
    host_.on_context_switch(Host::kNoTask, 0, now);
  }
  if (!config_.mode_reset_on_idle || mode_ != CritLevel::HI) return;
  mode_ = CritLevel::LO;
  ++counters_.mode_resets;
  publish({now, EventKind::kModeReset, 0, 0, 0, 0, 0});
  host_.on_mode_change(CritLevel::LO, now);
}

double Core::current_period(std::uint32_t task) const {
  double period = static_cast<double>(tasks_[task].period);
  if (tasks_[task].crit == CritLevel::LO && mode_ == CritLevel::HI &&
      config_.adaptation == AdaptationKind::kDegradation) {
    period *= config_.degradation_factor;
  }
  return period;
}

bool Core::release_allowed(std::uint32_t task) const {
  return !(config_.adaptation == AdaptationKind::kKilling &&
           mode_ == CritLevel::HI &&
           tasks_[task].crit == CritLevel::LO);
}

}  // namespace ftmc::rt
