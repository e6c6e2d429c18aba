#include "probes.hpp"

#include <algorithm>

#include "ftmc/core/profiles.hpp"

namespace perfbench {

void CoreProbe::run(const ftmc::core::FtTaskSet& ts,
                    const ftmc::core::FtsConfig& cfg,
                    const ftmc::core::FtsResult* known) {
  using namespace ftmc;
  double t0 = now_s();
  const auto n_hi = core::min_reexec_profile(ts, CritLevel::HI, cfg.requirements);
  const auto n_lo = core::min_reexec_profile(ts, CritLevel::LO, cfg.requirements);
  if (n_hi && n_lo) {
    (void)core::min_adaptation_profile(ts, *n_hi, *n_lo, cfg.requirements,
                                       cfg.adaptation);
  }
  search_us += (now_s() - t0) * 1e6;
  ++sets;
  const core::FtsResult r = known ? *known : core::ft_schedule(ts, cfg);
  if (!r.success) return;
  t0 = now_s();
  (void)core::pfh_lo_under_adaptation(ts, r.n_hi, r.n_lo, r.n_adapt,
                                      cfg.adaptation);
  pfh_us += (now_s() - t0) * 1e6;
  ++pfh_sets;
}

void CoreProbe::report_to(Report& report) const {
  report.set("core.profile_search.us_per_set",
             search_us / static_cast<double>(std::max<std::size_t>(sets, 1)));
  report.set("core.pfh_bound.us_per_set",
             pfh_us / static_cast<double>(std::max<std::size_t>(pfh_sets, 1)));
}

}  // namespace perfbench
