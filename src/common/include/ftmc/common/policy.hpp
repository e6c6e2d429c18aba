/// \file policy.hpp
/// \brief The scheduling-policy vocabulary shared by the analysis (`mcs`),
///        the runtime core (`rt`) and its hosts (`sim`, POSIX).
///
/// One definition per concept: the schedulability tests report which
/// adaptation they assume, and the runtime core executes that same
/// adaptation under one of these policies, so both sides spell them with
/// the same enums.
#pragma once

#include <cstdint>
#include <string_view>

namespace ftmc {

/// Scheduling policy the runtime core executes.
enum class PolicyKind : std::uint8_t {
  kEdf,            ///< single-criticality EDF on true deadlines
  kEdfVd,          ///< EDF-VD: virtual deadlines for HI jobs in LO mode
  kFixedPriority,  ///< fixed priorities (smaller value = more important)
};

/// What the LO->HI criticality switch does to LO tasks — this also decides
/// which PFH bound (Lemma 3.3 vs Lemma 3.4) the fault-tolerant layer must
/// apply.
enum class AdaptationKind : std::uint8_t {
  kNone,         ///< no mode switch effect (e.g. plain EDF on worst-case load)
  kKilling,      ///< discard ready LO jobs, suppress future LO releases
  kDegradation,  ///< stretch LO periods and deadlines by d_f
};

/// Stable dump names ("edf-vd", "killing", ...) used by the black-box
/// format; the inverses return false on unknown names.
[[nodiscard]] std::string_view to_string(PolicyKind policy);
[[nodiscard]] std::string_view to_string(AdaptationKind adaptation);
[[nodiscard]] bool policy_from_string(std::string_view name, PolicyKind& out);
[[nodiscard]] bool adaptation_from_string(std::string_view name,
                                          AdaptationKind& out);

}  // namespace ftmc
