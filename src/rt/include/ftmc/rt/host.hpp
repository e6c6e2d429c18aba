/// \file host.hpp
/// \brief The narrow interface between the runtime core and its host,
///        and the task and fault-model types every host shares.
///
/// The core is passive: the host owns time (every core entry point takes
/// `now`), arrival generation (the release event queue, timers, sporadic
/// jitter) and all randomness (execution-time and fault sampling). The
/// core owns every *decision*: who runs, virtual-deadline ordering, the
/// criticality switch, re-execution, degradation and admission.
///
/// Contract highlights (see docs/runtime.md):
///  - `now` must be non-decreasing across calls;
///  - callbacks are invoked synchronously from core entry points, on the
///    host's thread; the core is single-threaded by design;
///  - the core performs no heap allocation after `Core::start()` (unless
///    `CoreConfig::allow_job_growth` is set), so every callback may run in
///    allocation-averse contexts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "ftmc/rt/event.hpp"
#include "ftmc/rt/types.hpp"

namespace ftmc::rt {

/// One task as every host sees it: the core-level parameters (so a
/// HostTask goes straight into `Core::add_task`) plus the host-owned
/// display name and fault/checkpoint model.
struct HostTask : TaskParams {
  std::string name;
  double failure_prob = 0.0;  ///< f_i: per-attempt fault probability
  /// Checkpointing (core::CheckpointScheme semantics): a job runs as
  /// `segments` pieces of C/k each plus a checkpoint save of
  /// `checkpoint_overhead * C` after each piece; a fault re-runs only the
  /// current segment (see segment_wcet / segment_failure_prob).
  double checkpoint_overhead = 0.0;
};

/// How a host decides whether a segment's sanity check fails.
enum class FaultModel : std::uint8_t {
  kNone,  ///< no faults ever (pure schedule demo)
  /// i.i.d. per-attempt faults with probability f_i (the paper's fault
  /// model), drawn from the host's seeded RNG.
  kBernoulli,
  /// Deterministic worst case: every job fails all but its last permitted
  /// attempt and succeeds on the last one. Demand is maximal (a job
  /// consumes its full re-execution budget n_i * C_i), the criticality
  /// change of a HI job fires at the latest possible instant, and — unlike
  /// f_i -> 1 — every job still completes, so deadline misses remain
  /// observable. Used by ftmc::check to validate schedulability claims.
  kExhaustBudget,
};

/// Stable dump names ("none", "bernoulli", "exhaust-budget") used by the
/// black-box format; the inverse returns false on unknown names.
[[nodiscard]] std::string_view to_string(FaultModel model);
[[nodiscard]] bool fault_model_from_string(std::string_view name,
                                           FaultModel& out);

class Host {
 public:
  virtual ~Host() = default;

  /// Duration of the next segment execution of `task` (the host's
  /// execution-time model; a WCET host simply returns the segment WCET).
  /// Called once per segment dispatch, in deterministic order.
  [[nodiscard]] virtual Tick sample_segment_time(std::uint32_t task) = 0;

  /// Outcome of the sanity check after a segment of `task` executed:
  /// true = the segment faulted. `faults_so_far` is the job's fault count
  /// before this attempt (deterministic adversaries key off it).
  [[nodiscard]] virtual bool sample_fault(std::uint32_t task,
                                          int faults_so_far) = 0;

  /// Trace sink: every scheduling event, in order. Hosts build traces,
  /// metrics and statistics from this stream.
  virtual void emit(const Event& event) = 0;

  /// The criticality mode changed (after the switch's own events were
  /// emitted). Hosts that generate arrivals adjust pending releases here:
  /// under kKilling entering HI suppresses future LO releases (and
  /// leaving HI re-admits them); under kDegradation entering HI stretches
  /// the *pending* next release of each LO task by (d_f - 1) * T.
  virtual void on_mode_change(CritLevel mode, Tick now) {
    (void)mode;
    (void)now;
  }

  /// The processor switched jobs: `to_task`/`to_job` got the processor
  /// (kNoTask = went idle). Real-time hosts hook actual context switches
  /// here; simulation hosts usually ignore it (the kStart/kPreempt events
  /// carry the same information).
  static constexpr std::uint32_t kNoTask = UINT32_MAX;
  virtual void on_context_switch(std::uint32_t to_task, std::uint64_t to_job,
                                 Tick now) {
    (void)to_task;
    (void)to_job;
    (void)now;
  }
};

}  // namespace ftmc::rt
