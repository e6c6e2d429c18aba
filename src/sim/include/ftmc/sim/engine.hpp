/// \file engine.hpp
/// \brief Discrete-event simulator for a preemptive uniprocessor running a
///        fault-tolerant mixed-criticality workload.
///
/// Faithful to the paper's runtime model:
///  - each job executes up to n_i attempts; a per-attempt Bernoulli(f_i)
///    sanity check decides success;
///  - when a HI job starts its (n'_i + 1)-th attempt the system switches to
///    HI mode: LO jobs are killed (and future LO releases suppressed) or LO
///    periods are stretched by d_f from their next arrival on;
///  - under EDF-VD, HI jobs are ordered by virtual deadline in LO mode and
///    by true deadline in HI mode.
///
/// Since the ftmc::rt extraction the simulator is a *host* of the
/// freestanding runtime core (`ftmc::rt::Core`): it owns time (the
/// discrete-event release queue), randomness (execution times, faults,
/// sporadic jitter) and observation (trace, metrics, statistics), while
/// every scheduling decision — who runs, virtual deadlines, the
/// criticality switch, re-execution, degradation — is the core's.
/// docs/runtime.md describes the split; the POSIX demo host
/// (ftmc::rt::PosixHost) drives the identical core in real time.
#pragma once

#include <optional>
#include <random>

#include "ftmc/obs/registry.hpp"
#include "ftmc/rt/core.hpp"
#include "ftmc/sim/model.hpp"
#include "ftmc/sim/stats.hpp"
#include "ftmc/sim/trace.hpp"

namespace ftmc::sim {

/// Run configuration.
struct SimConfig {
  PolicyKind policy = PolicyKind::kEdfVd;
  /// What the mode switch does to LO tasks.
  AdaptationKind adaptation = AdaptationKind::kKilling;
  /// d_f: LO inter-arrival stretch after the switch (kDegradation only).
  double degradation_factor = 1.0;
  Tick horizon = kTicksPerHour;  ///< simulate [0, horizon)
  std::uint64_t seed = 1;

  /// Arrival model: strictly periodic (minimal inter-arrival, the
  /// worst case) or sporadic with an exponential extra gap of mean
  /// `jitter_fraction * T` between consecutive releases.
  bool sporadic_arrivals = false;
  double jitter_fraction = 0.1;

  /// When true, each task's first release is drawn uniformly from
  /// [0, T_i) instead of the synchronous critical instant at t = 0.
  /// Useful for Monte-Carlo PFH estimation where the synchronous burst
  /// would bias short-horizon statistics.
  bool random_phasing = false;

  ExecTimeModel exec_model = ExecTimeModel::kAlwaysWcet;
  double exec_min_fraction = 1.0;  ///< lower bound for kUniform

  /// Fault model: random per-attempt faults, none, or the deterministic
  /// worst-case adversary that consumes every job's full re-execution
  /// budget (see rt::FaultModel).
  rt::FaultModel fault_adversary = rt::FaultModel::kBernoulli;

  /// Return to LO mode at the first processor-idle instant after a switch
  /// (a common MC runtime extension; off by default to match the paper's
  /// latched-mode analysis).
  bool mode_reset_on_idle = false;

  /// Keep at most this many trace events (0 disables tracing).
  std::size_t trace_capacity = 0;

  /// Entries in the core's always-on black-box flight recorder (see
  /// ftmc/rt/flight_recorder.hpp); unlike the trace it survives with a
  /// bounded tail even when tracing is off.
  std::size_t black_box_capacity = 256;

  /// Optional metrics registry. When set, the run feeds scheduling
  /// counters (sim.releases, sim.preemptions, sim.mode_switches,
  /// sim.kills, sim.reexecutions, ...) and per-task response-time
  /// histograms (sim.response_us.<task>) from the trace-event stream —
  /// without growing (or requiring) the trace buffer. Null = off; the
  /// hot path then pays a single pointer test per event.
  obs::Registry* registry = nullptr;
};

/// The simulator: host #1 of ftmc::rt::Core. Construct, run once,
/// inspect stats/trace.
class Simulator : private rt::Host {
 public:
  Simulator(std::vector<rt::HostTask> tasks, SimConfig config);

  /// Runs the full horizon and returns the aggregated statistics.
  /// May be called once per instance.
  SimStats run();

  [[nodiscard]] const std::vector<rt::Event>& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] const std::vector<rt::HostTask>& tasks() const noexcept {
    return tasks_;
  }

  /// The core's black-box flight recorder (valid for the simulator's
  /// lifetime; inspect after run() for the post-mortem tail).
  [[nodiscard]] const rt::FlightRecorder& black_box() const noexcept {
    return core_->black_box();
  }

  /// Total temporal-domain failures (exhausted re-execution budgets,
  /// kills, deadline misses) of the tasks at `level`. This is the raw
  /// Poisson count behind empirical_pfh(); validation code needs it to
  /// attach an exact (Garwood) confidence interval. Valid after run().
  [[nodiscard]] std::uint64_t failure_count(const SimStats& stats,
                                            CritLevel level) const;

  /// Empirical PFH of the tasks at `level`: temporal-domain failures per
  /// simulated hour. Valid after run().
  [[nodiscard]] double empirical_pfh(const SimStats& stats,
                                     CritLevel level) const;

 private:
  struct Event {
    Tick time = 0;
    std::uint64_t seq = 0;  ///< FIFO tiebreak for determinism
    std::uint32_t task = 0;
  };
  friend bool operator>(const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  // rt::Host interface — the core calls back into the simulator for
  // randomness and observation.
  [[nodiscard]] Tick sample_segment_time(std::uint32_t task) override;
  [[nodiscard]] bool sample_fault(std::uint32_t task,
                                  int faults_so_far) override;
  void emit(const rt::Event& event) override;
  void on_mode_change(CritLevel mode, Tick now) override;

  void schedule_next_release(std::uint32_t task_index, Tick from);
  void push_release(std::uint32_t task_index, Tick at);
  void record_slow(const rt::Event& event);
  /// Hot-path event sink: a single byte test when neither tracing nor
  /// metrics are attached (the common case), everything else out of line.
  void record(const rt::Event& event) {
    if (record_flags_ != 0) record_slow(event);
  }

  /// Bits of record_flags_.
  static constexpr std::uint8_t kRecordTrace = 1;    ///< trace buffer on
  static constexpr std::uint8_t kRecordMetrics = 2;  ///< registry attached

  std::vector<rt::HostTask> tasks_;
  SimConfig config_;
  std::mt19937_64 rng_;

  // Run state (the host half: arrivals; the ready queue and mode live in
  // the core).
  std::optional<rt::Core> core_;
  /// Pending releases, sorted descending by (time, seq): back() is the
  /// earliest event, so pop is pop_back(). The storage is reserved for the
  /// steady-state population at construction (one live entry per task plus
  /// slack for mode-change duplicates), making the release path
  /// allocation-free in steady state. Replaces a binary heap: the queue
  /// holds ~n_tasks entries, where a sorted array beats heap sifting and
  /// — unlike a per-task table — provably preserves the heap's exact
  /// (time, seq) pop order, stale duplicates included.
  std::vector<Event> release_queue_;
  std::vector<Tick> next_release_;  // per task; kNever when suppressed
  std::uint64_t event_seq_ = 0;
  bool ran_ = false;

  SimStats stats_;
  std::vector<rt::Event> trace_;

  /// Registry handles, resolved once at construction (see
  /// SimConfig::registry). Engaged only when a registry is attached.
  /// Declared last: the cold handles must not shift the scheduler's hot
  /// state across cache lines.
  struct Metrics {
    obs::Counter releases, dispatches, preemptions, reexecutions,
        completions, job_failures, deadline_misses, mode_switches,
        mode_resets, kills;
    std::vector<obs::Histogram> response_us;  ///< per task
  };
  std::optional<Metrics> metrics_;
  std::uint8_t record_flags_ = 0;  ///< kRecordTrace | kRecordMetrics
};

/// One-call helper: build tasks from the analysis model, run, and return
/// the stats (used by validation benches and tests).
SimStats simulate(const core::FtTaskSet& ts, int n_hi, int n_lo,
                  int n_adapt_hi, double virtual_deadline_factor,
                  const SimConfig& config);

}  // namespace ftmc::sim
