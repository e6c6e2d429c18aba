#include "ftmc/core/report.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

namespace ftmc::core {
namespace {

std::string sci(double v) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(3) << v;
  return os.str();
}

std::string num(double v, int precision = 4) {
  std::ostringstream os;
  os << std::setprecision(precision) << v;
  return os.str();
}

void hrule(std::ostringstream& os) {
  os << "------------------------------------------------------------\n";
}

const char* kind_name(AdaptationKind kind) {
  switch (kind) {
    case AdaptationKind::kNone: return "none";
    case AdaptationKind::kKilling: return "task killing";
    case AdaptationKind::kDegradation: return "service degradation";
  }
  return "?";
}

}  // namespace

std::string certification_report(const FtTaskSet& ts,
                                 const FtsConfig& config,
                                 const ReportOptions& options) {
  ts.validate();
  const FtsResult result = ft_schedule(ts, config);

  std::ostringstream os;
  os << "FAULT-TOLERANT MIXED-CRITICALITY CERTIFICATION REPORT\n";
  hrule(os);

  // --- System description.
  os << "standard        : " << config.requirements.standard_name() << "\n";
  os << "mapping         : HI=" << to_string(ts.mapping().hi)
     << " LO=" << to_string(ts.mapping().lo) << "\n";
  os << "adaptation      : " << kind_name(config.adaptation.kind);
  if (config.adaptation.kind == AdaptationKind::kDegradation) {
    os << " (d_f = " << num(config.adaptation.degradation_factor) << ")";
  }
  os << "\n";
  os << "mission duration: " << num(config.adaptation.os_hours)
     << " h\n";
  os << "tasks           : " << ts.size() << " ("
     << ts.count(CritLevel::HI) << " HI, " << ts.count(CritLevel::LO)
     << " LO), base utilization " << num(ts.total_utilization()) << "\n";
  hrule(os);

  os << "task         T/D [ms]        C [ms]    DAL  f\n";
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const FtTask& t = ts[i];
    os << "  " << std::left << std::setw(10) << t.name << std::right
       << std::setw(8) << num(t.period) << "/" << std::left << std::setw(8)
       << num(t.deadline) << std::right << std::setw(8) << num(t.wcet)
       << "    " << to_string(t.dal) << "    " << sci(t.failure_prob)
       << "\n";
  }
  hrule(os);

  // --- Verdict and profiles.
  os << "VERDICT: " << (result.success ? "CERTIFIABLE" : "REJECTED") << "\n";
  if (!result.success) {
    os << "reason : " << to_string(result.failure) << "\n";
  }
  if (result.n_hi > 0) {
    os << "re-execution profiles: n_HI = " << result.n_hi
       << ", n_LO = " << result.n_lo << "\n";
  }
  if (result.success) {
    os << "adaptation profile   : n'_HI = " << result.n_adapt;
    if (result.n_adapt >= result.n_hi) {
      os << " (mode switch can never fire)";
    }
    os << "\n";
    os << "scheduler            : " << result.scheduler_name
       << " (U_MC = " << num(result.u_mc) << ")\n";

    const auto hi_req = config.requirements.requirement(ts.mapping().hi);
    const auto lo_req = config.requirements.requirement(ts.mapping().lo);
    os << "pfh(HI) = " << sci(result.pfh_hi) << "  vs requirement "
       << (hi_req ? "< " + sci(*hi_req) : "(none)") << "\n";
    os << "pfh(LO) = " << sci(result.pfh_lo) << "  vs requirement "
       << (lo_req ? "< " + sci(*lo_req) : "(none)") << "\n";
  }

  if (options.include_converted_set && result.success) {
    hrule(os);
    os << "converted mixed-criticality task set (Lemma 4.1):\n";
    os << "task         T/D [ms]   C(HI)     C(LO)\n";
    for (const auto& t : result.converted.tasks()) {
      os << "  " << std::left << std::setw(10) << t.name << std::right
         << std::setw(8) << num(t.period) << std::setw(10)
         << num(t.wcet_hi) << std::setw(10) << num(t.wcet_lo) << "\n";
    }
  }

  if (options.include_adaptation_sweep && result.n_hi > 0) {
    hrule(os);
    os << "adaptation sweep (U_MC / pfh(LO) per n'_HI):\n";
    const auto points =
        sweep_adaptation(ts, result.n_hi, result.n_lo, config.adaptation,
                         config.requirements, result.n_hi, config.exec);
    for (const auto& p : points) {
      os << "  n' = " << p.n_adapt << ": U_MC = "
         << (std::isinf(p.u_mc) ? std::string("inf") : num(p.u_mc))
         << (p.schedulable ? " (schedulable)" : " (NOT schedulable)")
         << ", pfh(LO) = " << sci(p.pfh_lo)
         << (p.safe ? " (safe)" : " (NOT safe)") << "\n";
    }
  }
  hrule(os);
  return os.str();
}

}  // namespace ftmc::core
