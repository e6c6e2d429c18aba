/// Generates certification-style reports: the complete safety and
/// schedulability argument FT-S produces, as one reviewable text artifact.
/// Runs the FMS case study under both adaptation policies, or a task set
/// loaded from the plain-text format.
///
/// Build & run:  ./build/examples-bin/certification_report [taskset.txt]
#include <fstream>
#include <iostream>

#include "ftmc/core/report.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/io/taskset_io.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;

  core::FtTaskSet tasks;
  double os_hours = fms::kFmsOperationHours;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    tasks = io::parse_task_set(in);
    os_hours = 1.0;
  } else {
    tasks = fms::canonical_fms_instance();
    std::cout << "(no task file given — using the FMS case study)\n\n";
  }

  core::FtsConfig kill;
  kill.adaptation.kind = AdaptationKind::kKilling;
  kill.adaptation.os_hours = os_hours;
  std::cout << core::certification_report(tasks, kill) << "\n";

  core::FtsConfig degrade;
  degrade.adaptation.kind = AdaptationKind::kDegradation;
  degrade.adaptation.degradation_factor = fms::kFmsDegradationFactor;
  degrade.adaptation.os_hours = os_hours;
  std::cout << core::certification_report(tasks, degrade);
  return 0;
}
