/// Plugging your own scheduling technique into FT-S.
///
/// The paper stresses that FT-S is "general in the sense any mixed-
/// criticality scheduling algorithm can be integrated" (Sec. 4.2). This
/// example integrates three different techniques S — EDF-VD, AMC-rtb
/// (fixed priority), and plain worst-case EDF — plus a hand-written custom
/// test, and compares which ones admit a task set loaded from the plain-
/// text format.
///
/// Build & run:  ./build/examples/custom_scheduler [taskset.txt]
#include <fstream>
#include <iostream>
#include <memory>

#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/io/taskset_io.hpp"
#include "ftmc/mcs/edf.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/fixed_priority.hpp"

namespace {

/// A deliberately naive custom technique: partitioned utilization budget —
/// schedulable iff HI-mode and LO-mode budgets each fit in half the
/// processor. Sufficient (each mode fits even with the other static) but
/// very pessimistic; it exists to show the SchedulabilityTest surface.
class HalfAndHalfTest final : public ftmc::mcs::SchedulabilityTest {
 public:
  bool schedulable(const ftmc::mcs::McTaskSet& ts) const override {
    using ftmc::CritLevel;
    const double lo_side = ts.utilization(CritLevel::LO, CritLevel::LO);
    const double hi_side = ts.utilization(CritLevel::HI, CritLevel::HI);
    return lo_side <= 0.5 && hi_side <= 0.5;
  }
  std::string name() const override { return "half-and-half (custom)"; }
  ftmc::AdaptationKind adaptation() const override {
    return ftmc::AdaptationKind::kKilling;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ftmc;

  core::FtTaskSet tasks;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    tasks = io::parse_task_set(in);
    std::cout << "loaded " << tasks.size() << " tasks from " << argv[1]
              << "\n\n";
  } else {
    tasks = io::parse_task_set_string(R"(
mapping HI=B LO=D
task tau1 T=60 C=5 dal=B f=1e-5
task tau2 T=25 C=4 dal=B f=1e-5
task tau3 T=40 C=7 dal=D f=1e-5
task tau4 T=90 C=6 dal=D f=1e-5
task tau5 T=70 C=8 dal=D f=1e-5
)");
    std::cout << "using the built-in Example 3.1 task set "
                 "(pass a file to load your own)\n\n";
  }

  const std::vector<mcs::SchedulabilityTestPtr> techniques = {
      std::make_shared<const mcs::EdfVdTest>(),
      std::make_shared<const mcs::AmcRtbTest>(),
      std::make_shared<const mcs::EdfWorstCaseTest>(),
      std::make_shared<const HalfAndHalfTest>(),
  };

  io::Table table({"technique S", "FT-S outcome", "n_HI", "n'_HI",
                   "pfh(LO)"});
  for (const auto& technique : techniques) {
    core::FtsConfig cfg;
    cfg.adaptation.kind = AdaptationKind::kKilling;
    cfg.adaptation.os_hours = 1.0;
    cfg.test = technique;
    cfg.use_closed_form_umc = false;  // force the generic search path
    const core::FtsResult r = core::ft_schedule(tasks, cfg);
    table.add_row({technique->name(),
                   r.success ? "SUCCESS"
                             : std::string(core::to_string(r.failure)),
                   r.success ? std::to_string(r.n_hi) : "-",
                   r.success ? std::to_string(r.n_adapt) : "-",
                   r.success ? io::Table::sci(r.pfh_lo, 1) : "-"});
  }
  std::cout << table;
  std::cout << "\nAll four techniques drive the same Algorithm 1 skeleton; "
               "only line 8 (the maximal schedulable adaptation profile) "
               "consults S.\n";
  return 0;
}
