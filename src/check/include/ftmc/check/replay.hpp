/// \file replay.hpp
/// \brief Differential trace replay: POSIX host vs. simulator host.
///
/// Both hosts drive the same `ftmc::rt::Core`, and both derive all
/// randomness from the same seeded mt19937_64 consumed in the same order
/// (the core fixes the callback order). A PosixHost run is therefore
/// fully determined by (tasks, config) — and replaying that configuration
/// through the discrete-event simulator must yield the *identical* event
/// stream. Any divergence means a host smuggled policy past the core.
///
/// This header is the shared implementation behind `ftmc_rtdemo --verify`
/// and the `trace-replay` property family of ftmc_check.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ftmc/check/property.hpp"
#include "ftmc/rt/event.hpp"
#include "ftmc/rt/posix_host.hpp"

namespace ftmc::check {

/// Result of a differential replay.
struct ReplayDiff {
  bool identical = false;
  /// Events the replayed source carries (trace events or dump records).
  std::size_t posix_events = 0;
  std::size_t sim_events = 0;
  /// Position in the source of the first differing event (SIZE_MAX when
  /// identical).
  std::size_t first_divergence = SIZE_MAX;
  /// Human-readable description of the divergence; empty when identical.
  std::string message;
};

/// One event a host recorded, paired with the index of the simulator
/// event it must equal.
struct ExpectedEvent {
  std::size_t sim_index = 0;
  rt::Event event;
};

/// The simulator-host event stream equivalent to a PosixHost run of
/// (tasks, config): same tasks, same seed, same horizon, same fault
/// model, WCET execution, strictly periodic arrivals from the synchronous
/// instant. The trace is bounded by config.trace_capacity.
[[nodiscard]] std::vector<rt::Event> replay_sim_trace(
    const std::vector<rt::HostTask>& tasks,
    const rt::PosixHostConfig& config);

/// The replay engine every event source goes through: runs
/// replay_sim_trace(tasks, config) and compares each expected event with
/// the simulator event at its index, whole events (operator==). With
/// `whole_stream` the simulator stream must also end right after the
/// expected events. `source` names the expected side in the message.
/// `first_divergence` is a position in `expected`.
[[nodiscard]] ReplayDiff replay_events(
    const std::vector<rt::HostTask>& tasks, const rt::PosixHostConfig& config,
    const std::vector<ExpectedEvent>& expected, std::string_view source,
    bool whole_stream);

/// Replays a PosixHost run's trace: event i must equal simulator event i,
/// and both streams must have the same length.
[[nodiscard]] ReplayDiff replay_through_sim(
    const std::vector<rt::HostTask>& tasks, const rt::PosixHostConfig& config,
    const std::vector<rt::Event>& posix_trace);

/// The trace-replay property family (registered in all_properties()).
Outcome p_replay_adversary_killing(const Case& c, const PropertyContext& ctx);
Outcome p_replay_bernoulli_degradation(const Case& c,
                                       const PropertyContext& ctx);
Outcome p_replay_determinism(const Case& c, const PropertyContext& ctx);

}  // namespace ftmc::check
