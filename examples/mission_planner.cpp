/// Mission planner: explore the certifiable design space of a system.
///
/// Given a task set, sweep the two deployment-time knobs the paper leaves
/// to the designer — the mission duration O_S and the degradation factor
/// d_f — and print which combinations FT-S can certify, under killing and
/// under degradation. This is the "which aircraft can fly this software,
/// and for how long" view of the paper's results.
///
/// Build & run:  ./build/examples-bin/mission_planner [taskset.txt]
#include <cmath>
#include <fstream>
#include <iostream>

#include "ftmc/core/design_space.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/io/taskset_io.hpp"

namespace {

using namespace ftmc;

/// One cell of the design-space table.
std::string verdict(const core::FtTaskSet& ts, AdaptationKind kind,
                    double os, double df) {
  core::FtsConfig cfg;
  cfg.adaptation.kind = kind;
  cfg.adaptation.degradation_factor = df;
  cfg.adaptation.os_hours = os;
  const auto r = core::ft_schedule(ts, cfg);
  if (!r.success) return std::string("-");
  return "n'=" + std::to_string(r.n_adapt);
}

}  // namespace

int main(int argc, char** argv) {
  core::FtTaskSet tasks;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    tasks = io::parse_task_set(in);
  } else {
    tasks = fms::canonical_fms_instance();
    std::cout << "(no task file given — planning for the FMS case "
                 "study)\n\n";
  }

  const std::vector<double> missions = {1.0, 2.0, 5.0, 10.0, 20.0};

  std::cout << "Certifiable configurations under TASK KILLING\n";
  std::cout << "(cell = chosen adaptation profile, '-' = not "
               "certifiable):\n\n";
  io::Table kill_table({"O_S [h]", "killing"});
  for (const double os : missions) {
    kill_table.add_row({io::Table::num(os, 3),
                        verdict(tasks, AdaptationKind::kKilling, os,
                                1.0)});
  }
  std::cout << kill_table << "\n";

  std::cout << "Certifiable configurations under SERVICE DEGRADATION:\n\n";
  const std::vector<double> dfs = {1.5, 2.0, 3.0, 6.0, 12.0};
  std::vector<std::string> header = {"O_S [h]"};
  for (const double df : dfs) {
    header.push_back("d_f=" + io::Table::num(df, 3));
  }
  io::Table deg_table(header);
  for (const double os : missions) {
    std::vector<std::string> row = {io::Table::num(os, 3)};
    for (const double df : dfs) {
      row.push_back(
          verdict(tasks, AdaptationKind::kDegradation, os, df));
    }
    deg_table.add_row(row);
  }
  std::cout << deg_table;
  std::cout << "\nLarger d_f buys schedulability (less residual LO load "
               "after the switch) at the price of slower degraded "
               "service; longer missions accumulate kill probability and "
               "eventually defeat killing entirely (paper Sec. 5.1).\n";

  // Pareto view at O_S = 10 h: mechanism x d_f x segmentation, scored on
  // (service quality, safety margin, schedulability margin).
  core::DesignSpaceOptions ds;
  ds.os_hours = 10.0;
  ds.degradation_factors = {2.0, 3.0, 6.0, 12.0};
  ds.segment_counts = {1, 4};
  ds.overhead_fraction = 0.02;
  const auto points = core::explore_design_space(tasks, ds);
  const auto front = core::pareto_front(points);
  std::cout << "\nPareto-optimal certifiable configurations (O_S = 10 h):\n\n";
  io::Table pareto({"mechanism", "d_f", "segments", "LO service kept",
                    "safety margin [orders]", "1 - U_MC"});
  for (const std::size_t i : front) {
    const auto& p = points[i];
    pareto.add_row(
        {p.kind == AdaptationKind::kKilling ? "killing" : "degrade",
         p.kind == AdaptationKind::kKilling
             ? "-"
             : io::Table::num(p.degradation_factor, 3),
         std::to_string(p.segments),
         io::Table::num(p.service_quality, 3),
         std::isinf(p.safety_margin_orders)
             ? "inf"
             : io::Table::num(p.safety_margin_orders, 3),
         io::Table::num(p.schedulability_margin, 3)});
  }
  std::cout << pareto;
  return 0;
}
