/// \file spec.hpp
/// \brief Declarative campaign specifications: a JSON description of an
///        acceptance-ratio sweep (the paper's Fig. 3 family) over
///        schedulers, fault rates, utilizations and seeds.
///
/// A campaign is a grid: for every (scheduler, failure_prob, utilization)
/// triple, `sets_per_point` random task sets are generated and pushed
/// through FT-S. The spec expands into *cells* — one grid point each —
/// and every cell carries a complete, self-contained description of its
/// work: all generator parameters, the scheduler, and the derived RNG
/// seed. That self-containment is what makes the content-hash result
/// cache sound: two cells with equal canonical JSON compute the same
/// numbers, bit for bit.
///
/// Determinism contract (mirrors bench/common's historical Fig. 3
/// driver): the seed of the cell at grid position (f_idx, u_idx) is
/// derive_seed(spec.seed, f_idx * n_u + u_idx), independent of the
/// scheduler — every scheduler scores the *same* task sets (paired
/// comparison) and a single-scheduler campaign reproduces the fig3a-d
/// benches exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ftmc/campaign/cache.hpp"
#include "ftmc/common/criticality.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/mcs/schedulability.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace ftmc::campaign {

/// The schedulability techniques a campaign can sweep over.
enum class Scheduler {
  kEdfVdKilling,      ///< EDF-VD, LO tasks killed (paper Algorithm 2).
  kEdfVdDegradation,  ///< EDF-VD variant with period stretching (Eq. 11).
  kAmcRtb,            ///< Fixed-priority AMC-rtb, deadline-monotonic.
  kAmcRtbOpa,         ///< AMC-rtb under Audsley's optimal assignment.
  kMcDbf,             ///< Demand-bound-function test (Ekberg & Yi style).
};

/// Spec-file name of a scheduler ("edf_vd_killing", ...).
[[nodiscard]] std::string_view to_string(Scheduler scheduler);
[[nodiscard]] std::optional<Scheduler> parse_scheduler(
    std::string_view text);
/// What the technique does to LO tasks at the mode switch (selects the
/// PFH lemma inside FT-S).
[[nodiscard]] AdaptationKind adaptation_of(
    Scheduler scheduler) noexcept;

/// Task-set generator axes shared by every cell (Appendix C generator;
/// defaults are the paper's Fig. 3 settings).
struct GeneratorAxis {
  double u_min = 0.01;
  double u_max = 0.2;
  double period_min_ms = 200.0;
  double period_max_ms = 2000.0;
  taskgen::PeriodDistribution period_distribution =
      taskgen::PeriodDistribution::kUniform;
  double p_hi = 0.2;
};

/// A full campaign description. See docs/campaigns.md for the JSON
/// schema; parse_spec rejects unknown keys so typos fail loudly instead
/// of silently running defaults.
struct CampaignSpec {
  std::string name;   ///< identifier, [A-Za-z0-9_-]+ (used in file names)
  std::string title;  ///< human-readable heading (defaults to name)
  std::vector<Scheduler> schedulers;
  DualCriticalityMapping mapping{Dal::B, Dal::D};
  double degradation_factor = 6.0;
  double os_hours = 1.0;
  std::vector<double> failure_probs;
  std::vector<double> utilizations;
  int sets_per_point = 500;
  std::uint64_t seed = 20140601;
  GeneratorAxis generator;

  /// Throws ftmc::io::ParseError on semantically invalid axes (empty
  /// grids, probabilities outside (0, 1), ...). Input-level validation,
  /// not a contract check: specs come from user-written files.
  void validate() const;
};

/// Parses a spec from a JSON document / text / file. Throws
/// ftmc::io::ParseError naming the offending key on malformed input.
[[nodiscard]] CampaignSpec parse_spec(const io::json::Value& doc);
[[nodiscard]] CampaignSpec parse_spec_text(std::string_view text);
[[nodiscard]] CampaignSpec load_spec_file(const std::string& path);

/// Canonical JSON re-emission (fixed key order, full number precision).
/// parse_spec_text(spec_to_json(s)) reproduces s exactly.
[[nodiscard]] std::string spec_to_json(const CampaignSpec& spec);

/// One grid point, self-contained (see file comment).
struct CellSpec {
  std::size_t index = 0;  ///< position in expansion order
  Scheduler scheduler = Scheduler::kEdfVdKilling;
  double failure_prob = 0.0;
  double utilization = 0.0;
  std::uint64_t seed = 0;  ///< derived; pure function of the spec grid
  DualCriticalityMapping mapping;
  double degradation_factor = 0.0;
  double os_hours = 0.0;
  int sets_per_point = 0;
  GeneratorAxis generator;
};

/// Expands the grid in deterministic order: schedulers major, then
/// failure_probs, then utilizations.
[[nodiscard]] std::vector<CellSpec> expand_cells(const CampaignSpec& spec);

/// Canonical cell form hashed for the result cache: fixed key order,
/// seed as a decimal string (uint64 does not fit a JSON double), and
/// result-irrelevant fields normalized out (degradation_factor is
/// omitted for killing-family schedulers, whose results do not depend
/// on it — so editing it re-runs only degradation cells).
[[nodiscard]] std::string canonical_cell_json(const CellSpec& cell);

/// Cache key of a cell: content_hash(canonical_cell_json) — 16 hex
/// digits (fnv1a64 and content_hash moved to cache.hpp, included above).
[[nodiscard]] std::string cell_hash(const CellSpec& cell);

}  // namespace ftmc::campaign
