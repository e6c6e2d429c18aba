#include "ftmc/rt/types.hpp"

#include <algorithm>
#include <cmath>

#include "ftmc/rt/event.hpp"
#include "ftmc/rt/host.hpp"

namespace ftmc::rt {

Tick segment_wcet(Tick wcet, int segments, double checkpoint_overhead) {
  if (segments == 1 && checkpoint_overhead == 0.0) return wcet;
  const double piece = static_cast<double>(wcet) / segments;
  const double save = checkpoint_overhead * static_cast<double>(wcet);
  return std::max<Tick>(static_cast<Tick>(piece + save + 0.5), 1);
}

double segment_failure_prob(double failure_prob, int segments) {
  if (segments == 1) return failure_prob;
  if (failure_prob <= 0.0) return 0.0;
  return -std::expm1(std::log1p(-failure_prob) /
                     static_cast<double>(segments));
}

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kRelease: return "release";
    case EventKind::kStart: return "start";
    case EventKind::kPreempt: return "preempt";
    case EventKind::kAttemptFail: return "attempt-fail";
    case EventKind::kComplete: return "complete";
    case EventKind::kJobFail: return "job-fail";
    case EventKind::kDeadlineMiss: return "deadline-miss";
    case EventKind::kModeSwitch: return "mode-switch";
    case EventKind::kModeReset: return "mode-reset";
    case EventKind::kKill: return "kill";
  }
  return "unknown";
}

std::string_view to_string(FaultModel model) {
  switch (model) {
    case FaultModel::kNone: return "none";
    case FaultModel::kBernoulli: return "bernoulli";
    case FaultModel::kExhaustBudget: return "exhaust-budget";
  }
  return "unknown";
}

bool fault_model_from_string(std::string_view name, FaultModel& out) {
  for (const FaultModel m : {FaultModel::kNone, FaultModel::kBernoulli,
                             FaultModel::kExhaustBudget}) {
    if (name == to_string(m)) {
      out = m;
      return true;
    }
  }
  return false;
}

}  // namespace ftmc::rt
