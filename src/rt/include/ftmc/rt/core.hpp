/// \file core.hpp
/// \brief The freestanding EDF-VD runtime scheduler core.
///
/// `Core` owns all scheduling *policy* of the paper's FT-S runtime:
///  - an EDF-VD ready queue with the documented deterministic total order
///    (effective deadline, criticality, task id, job id — see
///    `job_before`);
///  - virtual-deadline bookkeeping: HI jobs are keyed by release + VD in
///    LO mode and by their true deadline after the switch;
///  - the LO->HI criticality switch, triggered when a HI job accumulates
///    n' faults (threshold 0 fires at the release itself), with kill or
///    d_f-degradation handling of LO work;
///  - fault-triggered re-execution up to n attempts per job, segmented
///    (checkpointed) execution included;
///  - optional density-based admission control at task creation;
///  - per-task and whole-core counters (mode switches, deadline misses).
///
/// Everything the core does *not* own is behind the `Host` interface:
/// time, arrival generation, randomness, tracing. In the style of the
/// FreeRTOS EDF patch, the core allocates all job slots up front
/// (`CoreConfig::max_jobs`) and performs **no heap allocation after
/// `start()`** — verified by an operator-new-hook test. A DES host that
/// prefers convenience over the no-alloc guarantee can opt into
/// `allow_job_growth`.
#pragma once

#include <cstdint>
#include <vector>

#include "ftmc/rt/event.hpp"
#include "ftmc/rt/flight_recorder.hpp"
#include "ftmc/rt/host.hpp"
#include "ftmc/rt/types.hpp"

namespace ftmc::rt {

/// Policy configuration of the core.
struct CoreConfig {
  PolicyKind policy = PolicyKind::kEdfVd;
  AdaptationKind adaptation = AdaptationKind::kKilling;
  /// d_f: stretch of LO periods and deadlines after the switch
  /// (kDegradation only; must be >= 1).
  double degradation_factor = 1.0;
  /// Return to LO mode at the first processor-idle instant after a
  /// switch (off by default, matching the paper's latched-mode model).
  bool mode_reset_on_idle = false;
  /// When true, `add_task` rejects tasks whose addition fails the
  /// density-based admission test (see docs/runtime.md). When false every
  /// structurally valid task is admitted (simulation hosts validate
  /// schedulability analytically instead).
  bool admission_control = false;
  /// Job slots reserved at start(). A slot is occupied from release to
  /// retirement, so this bounds the ready backlog, not the job count.
  std::size_t max_jobs = 64;
  /// Allow the job pool to grow past max_jobs on demand. This breaks the
  /// no-alloc contract and exists for the DES host, where an overloaded
  /// scenario may queue an unbounded backlog.
  bool allow_job_growth = false;
  /// Entries in the always-on black-box flight recorder (see
  /// flight_recorder.hpp). Storage is allocated in the Core constructor —
  /// before the no-alloc window opens at start() — and recording into it
  /// never allocates. 0 disables storage (records are still counted).
  std::size_t black_box_capacity = 256;
};

/// The runtime core. Lifecycle: construct -> add_task()* -> start() ->
/// host drives on_release / dispatch / run_for / on_segment_boundary /
/// on_idle with non-decreasing `now`.
class Core {
 public:
  /// Returned by dispatch() when nothing is ready.
  static constexpr std::size_t kIdle = SIZE_MAX;

  /// The host reference must outlive the core.
  Core(const CoreConfig& config, Host& host);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  // -- setup ------------------------------------------------------------

  /// Registers a task; only valid before start(). Returns the admission
  /// verdict; rejected tasks are not added. Structural contract
  /// violations (non-positive period, ...) throw ContractViolation.
  Admission add_task(const TaskParams& params);

  /// Freezes the task table and pre-allocates all runtime storage. After
  /// this call the core performs no heap allocation (see allow_job_growth).
  void start();

  // -- host events ------------------------------------------------------

  /// A job of `task` arrived at `now`. Applies the mode-dependent
  /// deadline, asks the host for the first segment's duration, and may
  /// trigger the criticality switch (adapt_threshold == 0).
  void on_release(std::uint32_t task, Tick now);

  /// Picks the job to run at `now` (the documented EDF-VD order), emits
  /// kPreempt/kStart events on changes, and returns its slot (kIdle when
  /// nothing is ready). Idempotent when nothing changed.
  std::size_t dispatch(Tick now);

  /// Accounts `delta` ticks of execution to the running job.
  void run_for(Tick delta);

  /// The running job's current segment finished executing at `now`
  /// (run_for brought its remaining time to zero): asks the host's
  /// sanity-check verdict and handles completion, re-execution, the
  /// criticality trigger, or retirement.
  void on_segment_boundary(Tick now);

  /// The processor went idle at `now` (host found the ready set empty):
  /// performs the optional HI->LO mode reset.
  void on_idle(Tick now);

  // -- queries ----------------------------------------------------------

  [[nodiscard]] bool has_ready() const noexcept { return !ready_.empty(); }
  [[nodiscard]] Tick running_remaining() const;
  [[nodiscard]] CritLevel mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] const TaskParams& task(std::uint32_t index) const {
    return tasks_[index];
  }

  /// Effective inter-arrival time of `task` in the current mode: T_i, or
  /// d_f * T_i for LO tasks in HI mode under degradation. Hosts use this
  /// to schedule the next release (plus any sporadic jitter of their own).
  [[nodiscard]] double current_period(std::uint32_t task) const;

  /// False while LO releases are suppressed (killing adaptation, HI
  /// mode). Hosts that keep their own arrival bookkeeping may ignore this
  /// and rely on on_mode_change instead.
  [[nodiscard]] bool release_allowed(std::uint32_t task) const;

  [[nodiscard]] const CoreCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const TaskCounters& task_counters(std::uint32_t index) const {
    return task_counters_[index];
  }

  /// The always-on black box. Its record stream is: one kAdmit/kReject per
  /// add_task call (in call order), then every event published to the
  /// host, in publication order — so a scheduling record with sequence
  /// number `seq` corresponds to host event `seq - black_box_admissions()`,
  /// the alignment `ftmc::check` replays dumps by.
  [[nodiscard]] const FlightRecorder& black_box() const noexcept {
    return black_box_;
  }
  /// Admission records (kAdmit + kReject) at the head of the record stream.
  [[nodiscard]] std::uint64_t black_box_admissions() const noexcept {
    return black_box_admissions_;
  }

  // -- the documented ready-queue order ---------------------------------

  /// Priority key of the job in `slot`: its absolute virtual deadline
  /// under kEdfVd in LO mode (HI jobs), its absolute deadline otherwise,
  /// or the static priority under kFixedPriority.
  [[nodiscard]] Tick job_key(std::size_t slot) const;

  /// The total order of the ready queue. Primary: smaller job_key (the
  /// EDF-VD rule). Ties are broken by an explicit, documented order so
  /// that every host replays the same schedule:
  ///   1. criticality — HI before LO (at equal deadlines the safety-
  ///      critical job must not wait behind best-effort work);
  ///   2. task id — the task table defines a stable rank;
  ///   3. job id — earlier jobs of the same task first (FIFO).
  /// This order is a regression-tested part of the replay contract.
  [[nodiscard]] bool job_before(std::size_t a, std::size_t b) const;

 private:
  struct Job {
    std::uint32_t task = 0;
    std::uint64_t id = 0;
    Tick release = 0;
    Tick abs_deadline = 0;
    int faults = 0;         ///< segment faults so far
    int segments_done = 0;  ///< completed segments
    Tick remaining = 0;     ///< remaining time of the current segment
    bool alive = true;
  };

  void enter_hi_mode(Tick now);
  void retire(std::size_t slot);
  /// Records `e` into the black box, then forwards it to the host.
  void publish(const Event& e);
  [[nodiscard]] std::size_t pick_ready_job() const;
  [[nodiscard]] Admission admission_check(const TaskParams& candidate) const;

  CoreConfig config_;
  Host& host_;
  std::vector<TaskParams> tasks_;

  std::vector<Job> jobs_;            // slot pool; dead slots recycled
  std::vector<std::size_t> ready_;   // slots of ready/running jobs,
                                     // in release order (kills iterate it)
  std::vector<std::size_t> free_slots_;
  std::vector<std::uint64_t> next_job_id_;  // per task
  std::vector<TaskCounters> task_counters_;
  CoreCounters counters_;
  FlightRecorder black_box_;
  std::uint64_t black_box_admissions_ = 0;
  std::size_t running_ = kIdle;
  CritLevel mode_ = CritLevel::LO;
  bool started_ = false;
};

}  // namespace ftmc::rt
