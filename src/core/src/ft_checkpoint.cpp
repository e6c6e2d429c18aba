#include "ftmc/core/ft_checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ftmc/mcs/edf.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/edf_vd_degradation.hpp"
#include "ftmc/prob/safe_math.hpp"

namespace ftmc::core {
namespace {

/// Segment length including the checkpoint save, in ms.
Millis segment_ms(const FtTask& task, const CheckpointScheme& scheme) {
  return task.wcet / scheme.segments +
         scheme.overhead_fraction * task.wcet;
}

/// Round count with an explicit busy term (Eq. (1) with n*C replaced).
double rounds_with_busy(Millis period, Millis busy, Millis t) {
  return std::max(std::floor((t - busy) / period) + 1.0, 0.0);
}

}  // namespace

double ckpt_trigger_prob(double failure_prob, int segments,
                         double overhead_fraction, int m) {
  FTMC_EXPECTS(m >= 0, "fault threshold must be non-negative");
  if (m == 0) return 1.0;  // triggers as soon as the job exists
  // P(faults >= m) == P(faults > m - 1): the job-failure tail with
  // retry budget m - 1.
  return checkpointed_job_failure_prob(
      failure_prob, {segments, m - 1, overhead_fraction});
}

prob::LogProb ckpt_survival_no_trigger(
    const FtTaskSet& ts, const std::vector<CheckpointScheme>& schemes,
    const PerTaskProfile& fault_thresholds, Millis t) {
  ts.validate();
  FTMC_EXPECTS(schemes.size() == ts.size() &&
                   fault_thresholds.size() == ts.size(),
               "one scheme and threshold per task required");
  double log_r = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) != CritLevel::HI) continue;
    const int m = fault_thresholds[i];
    // Minimal pre-trigger busy time: the m faulted segments themselves.
    const Millis busy = m * segment_ms(ts[i], schemes[i]);
    const double r = rounds_with_busy(ts[i].period, busy, t);
    if (r <= 0.0) continue;
    const double p = ckpt_trigger_prob(ts[i].failure_prob,
                                       schemes[i].segments,
                                       schemes[i].overhead_fraction, m);
    if (p >= 1.0) return prob::LogProb::zero();
    log_r += prob::log_survival(p, r);
  }
  return prob::LogProb::from_log(log_r);
}

double ckpt_pfh_lo_killing(const FtTaskSet& ts,
                           const std::vector<CheckpointScheme>& schemes,
                           const PerTaskProfile& fault_thresholds,
                           double os_hours) {
  ts.validate();
  FTMC_EXPECTS(os_hours > 0.0, "operation duration must be positive");
  const Millis t = hours_to_millis(os_hours);

  // Precompute HI-task trigger terms for log R(alpha).
  struct HiTerm {
    Millis period;
    Millis busy;
    double log_per_round;
  };
  std::vector<HiTerm> hi_terms;
  for (std::size_t j = 0; j < ts.size(); ++j) {
    if (ts.crit_of(j) != CritLevel::HI) continue;
    const int m = fault_thresholds[j];
    const double p = ckpt_trigger_prob(ts[j].failure_prob,
                                       schemes[j].segments,
                                       schemes[j].overhead_fraction, m);
    const double lpr = (p >= 1.0)
                           ? -std::numeric_limits<double>::infinity()
                           : std::log1p(-p);
    hi_terms.push_back({ts[j].period, m * segment_ms(ts[j], schemes[j]),
                        lpr});
  }
  const auto log_survival_at = [&hi_terms](Millis alpha) {
    double log_r = 0.0;
    for (const HiTerm& h : hi_terms) {
      const double r = rounds_with_busy(h.period, h.busy, alpha);
      if (r <= 0.0) continue;
      log_r += r * h.log_per_round;
    }
    return log_r;
  };

  double failures = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) != CritLevel::LO) continue;
    const Millis busy = checkpointed_wcet(ts[i], schemes[i]);
    const double p_round =
        checkpointed_job_failure_prob(ts[i].failure_prob, schemes[i]);
    const double log_ok = std::log1p(-p_round);
    const double r = rounds_with_busy(ts[i].period, busy, t);
    // pi-points: {t - busy - m*T + D | 1 <= m < r} u {t} (Eq. 4 with the
    // checkpointed budget).
    for (double k = r - 1.0; k >= 1.0; k -= 1.0) {
      const Millis alpha = t - busy - k * ts[i].period + ts[i].deadline;
      const double log_r = alpha <= 0.0 ? 0.0 : log_survival_at(alpha);
      failures += std::clamp(-std::expm1(log_r + log_ok), 0.0, 1.0);
    }
    failures +=
        std::clamp(-std::expm1(log_survival_at(t) + log_ok), 0.0, 1.0);
  }
  return failures / os_hours;
}

double ckpt_pfh_lo_degradation(const FtTaskSet& ts,
                               const std::vector<CheckpointScheme>& schemes,
                               const PerTaskProfile& fault_thresholds,
                               double os_hours) {
  ts.validate();
  FTMC_EXPECTS(os_hours > 0.0, "operation duration must be positive");
  const Millis t = hours_to_millis(os_hours);
  const double trigger =
      ckpt_survival_no_trigger(ts, schemes, fault_thresholds, t)
          .complement()
          .linear();
  // omega(1, t) with checkpointed budgets and failure probabilities.
  double omega = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) != CritLevel::LO) continue;
    omega += rounds_with_busy(ts[i].period,
                              checkpointed_wcet(ts[i], schemes[i]), t) *
             checkpointed_job_failure_prob(ts[i].failure_prob, schemes[i]);
  }
  return trigger * omega / os_hours;
}

mcs::McTaskSet convert_to_mc_checkpointed(
    const FtTaskSet& ts, const std::vector<CheckpointScheme>& schemes,
    const PerTaskProfile& fault_thresholds) {
  ts.validate();
  FTMC_EXPECTS(schemes.size() == ts.size() &&
                   fault_thresholds.size() == ts.size(),
               "one scheme and threshold per task required");
  mcs::McTaskSet out;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const FtTask& src = ts[i];
    const CheckpointScheme& scheme = schemes[i];
    scheme.validate();
    const Millis seg = segment_ms(src, scheme);
    mcs::McTask dst;
    dst.name = src.name;
    dst.period = src.period;
    dst.deadline = src.deadline;
    dst.crit = ts.crit_of(i);
    dst.wcet_hi = (scheme.segments + scheme.retry_budget) * seg;
    if (dst.crit == CritLevel::HI) {
      const int m = fault_thresholds[i];
      FTMC_EXPECTS(m >= 0 && m <= scheme.retry_budget + 1,
                   "fault threshold must satisfy 0 <= m <= R + 1");
      dst.wcet_lo =
          (m == 0) ? 0.0 : (scheme.segments - 1 + m) * seg;
      // m = R + 1 gives (k + R) * seg == C(HI): the never-fires encoding.
    } else {
      dst.wcet_lo = dst.wcet_hi;
    }
    out.add(std::move(dst));
  }
  out.validate();
  return out;
}

CkptFtsResult ft_schedule_checkpointed(const FtTaskSet& ts,
                                       const CkptFtsConfig& config) {
  ts.validate();
  FTMC_EXPECTS(config.segments >= 1, "need at least one segment");
  CkptFtsResult result;

  const auto schemes_for = [&](int r_hi, int r_lo) {
    std::vector<CheckpointScheme> schemes(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      schemes[i] = {config.segments,
                    ts.crit_of(i) == CritLevel::HI ? r_hi : r_lo,
                    config.overhead_fraction};
    }
    return schemes;
  };

  // --- Minimal uniform retry budgets per level (Algorithm 1 line 1-3).
  const auto min_budget = [&](CritLevel level) -> std::optional<int> {
    const Dal dal = ts.mapping().dal_of(level);
    if (!config.requirements.constrains(dal) || ts.count(level) == 0) {
      return 0;
    }
    for (int r = 0; r <= kMaxProfile; ++r) {
      if (config.requirements.satisfied(
              dal, pfh_plain_checkpointed(ts, schemes_for(r, r), level))) {
        return r;
      }
    }
    return std::nullopt;
  };
  const auto r_hi = min_budget(CritLevel::HI);
  if (!r_hi) {
    result.failure = FtsFailure::kHiSafetyInfeasible;
    return result;
  }
  const auto r_lo = min_budget(CritLevel::LO);
  if (!r_lo) {
    result.failure = FtsFailure::kLoSafetyInfeasible;
    return result;
  }
  result.r_hi = *r_hi;
  result.r_lo = *r_lo;
  const auto schemes = schemes_for(result.r_hi, result.r_lo);
  result.pfh_hi = pfh_plain_checkpointed(ts, schemes, CritLevel::HI);

  const auto thresholds_for = [&](int m) {
    return uniform_profile(ts, m, 0);
  };
  const auto pfh_lo_at = [&](int m) {
    switch (config.adaptation.kind) {
      case AdaptationKind::kKilling:
        return ckpt_pfh_lo_killing(ts, schemes, thresholds_for(m),
                                   config.adaptation.os_hours);
      case AdaptationKind::kDegradation:
        return ckpt_pfh_lo_degradation(ts, schemes, thresholds_for(m),
                                       config.adaptation.os_hours);
      case AdaptationKind::kNone:
        return pfh_plain_checkpointed(ts, schemes, CritLevel::LO);
    }
    FTMC_ENSURES(false, "unreachable adaptation kind");
    return 0.0;
  };

  // --- Minimal safe fault threshold m1 (Algorithm 1 line 4-7).
  const Dal lo_dal = ts.mapping().lo;
  if (!config.requirements.constrains(lo_dal) ||
      ts.count(CritLevel::LO) == 0) {
    result.m1 = 0;
  } else {
    const double req = *config.requirements.requirement(lo_dal);
    for (int m = 0; m <= result.r_hi; ++m) {
      if (pfh_lo_at(m) < req) {
        result.m1 = m;
        break;
      }
    }
    if (!result.m1) {
      result.failure = FtsFailure::kAdaptationUnsafe;
      return result;
    }
  }

  // --- Maximal schedulable fault threshold m2 (line 8).
  mcs::SchedulabilityTestPtr test = config.test;
  if (!test) {
    switch (config.adaptation.kind) {
      case AdaptationKind::kNone:
        test = std::make_shared<const mcs::EdfWorstCaseTest>();
        break;
      case AdaptationKind::kKilling:
        test = std::make_shared<const mcs::EdfVdTest>();
        break;
      case AdaptationKind::kDegradation:
        test = std::make_shared<const mcs::EdfVdDegradationTest>(
            config.adaptation.degradation_factor);
        break;
    }
  }
  result.scheduler_name = test->name();
  for (int m = result.r_hi + 1; m >= 0; --m) {
    if (test->schedulable(
            convert_to_mc_checkpointed(ts, schemes, thresholds_for(m)))) {
      result.m2 = m;
      break;
    }
  }
  if (!result.m2 || *result.m1 > *result.m2) {
    result.failure = FtsFailure::kUnschedulable;
    return result;
  }

  // --- Success (line 9-12).
  result.success = true;
  result.m_adapt = *result.m2;
  result.converted =
      convert_to_mc_checkpointed(ts, schemes, thresholds_for(result.m_adapt));
  result.pfh_lo = pfh_lo_at(result.m_adapt);
  return result;
}

}  // namespace ftmc::core
