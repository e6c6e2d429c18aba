#include "ftmc/common/policy.hpp"

namespace ftmc {

std::string_view to_string(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::kEdf: return "edf";
    case PolicyKind::kEdfVd: return "edf-vd";
    case PolicyKind::kFixedPriority: return "fixed-priority";
  }
  return "unknown";
}

std::string_view to_string(AdaptationKind adaptation) {
  switch (adaptation) {
    case AdaptationKind::kNone: return "none";
    case AdaptationKind::kKilling: return "killing";
    case AdaptationKind::kDegradation: return "degradation";
  }
  return "unknown";
}

bool policy_from_string(std::string_view name, PolicyKind& out) {
  for (const PolicyKind p : {PolicyKind::kEdf, PolicyKind::kEdfVd,
                             PolicyKind::kFixedPriority}) {
    if (name == to_string(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

bool adaptation_from_string(std::string_view name, AdaptationKind& out) {
  for (const AdaptationKind a :
       {AdaptationKind::kNone, AdaptationKind::kKilling,
        AdaptationKind::kDegradation}) {
    if (name == to_string(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

}  // namespace ftmc
