/// Quickstart: the complete FTMC workflow on the paper's Example 3.1.
///
///  1. Describe a dual-criticality sporadic task set with per-job failure
///     probabilities and DO-178B levels.
///  2. Ask FT-S (Algorithm 1 instantiated with EDF-VD) for re-execution
///     and killing profiles that make the system both SAFE and SCHEDULABLE.
///  3. Inspect the resulting conventional mixed-criticality task set.
///
/// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/io/table.hpp"

int main() {
  using namespace ftmc;

  // --- 1. The task set (paper Table 2): two level B tasks, three level D
  // tasks, every execution attempt failing with probability 1e-5.
  core::FtTaskSet tasks(
      {
          //        name    T      D     C    DAL     f
          core::FtTask{"tau1", 60.0, 60.0, 5.0, Dal::B, 1e-5},
          core::FtTask{"tau2", 25.0, 25.0, 4.0, Dal::B, 1e-5},
          core::FtTask{"tau3", 40.0, 40.0, 7.0, Dal::D, 1e-5},
          core::FtTask{"tau4", 90.0, 90.0, 6.0, Dal::D, 1e-5},
          core::FtTask{"tau5", 70.0, 70.0, 8.0, Dal::D, 1e-5},
      },
      DualCriticalityMapping{/*hi=*/Dal::B, /*lo=*/Dal::D});

  // --- 2. Run FT-S: DO-178B requirements, LO tasks may be killed when a
  // HI job starts its (n'+1)-th execution, EDF-VD underneath.
  core::FtsConfig config;
  config.requirements = core::SafetyRequirements::do178b();
  config.adaptation.kind = AdaptationKind::kKilling;
  config.adaptation.os_hours = 1.0;  // mission duration O_S

  const core::FtsResult result = core::ft_schedule(tasks, config);

  if (!result.success) {
    std::cout << "FT-S failed: " << core::to_string(result.failure) << "\n";
    return 1;
  }

  // --- 3. Report.
  std::cout << "FT-S succeeded using " << result.scheduler_name << "\n\n";
  std::cout << "re-execution profiles : n_HI = " << result.n_hi
            << ", n_LO = " << result.n_lo << "\n";
  std::cout << "killing profile       : n'_HI = " << result.n_adapt
            << "  (LO tasks die when a HI job starts attempt "
            << result.n_adapt + 1 << ")\n";
  std::cout << "achieved pfh(HI)      : " << io::Table::sci(result.pfh_hi, 3)
            << "  (DO-178B level B requires < 1e-7)\n";
  std::cout << "achieved pfh(LO)      : " << io::Table::sci(result.pfh_lo, 3)
            << "  (level D: no requirement)\n";
  std::cout << "EDF-VD utilization    : U_MC = "
            << io::Table::num(result.u_mc, 4) << " <= 1\n\n";

  std::cout << "converted mixed-criticality task set (Lemma 4.1):\n";
  io::Table table({"task", "chi", "T/D", "C(HI)", "C(LO)"});
  for (const auto& t : result.converted.tasks()) {
    table.add_row({t.name, std::string(to_string(t.crit)),
                   io::Table::num(t.period, 4),
                   io::Table::num(t.wcet_hi, 4),
                   io::Table::num(t.wcet_lo, 4)});
  }
  std::cout << table;
  std::cout << "\nWithout killing this set has utilization 1.086 > 1 — "
               "fault tolerance alone would make it unschedulable.\n";
  return 0;
}
