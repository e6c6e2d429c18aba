/// perfbench_worker: runs one benchmark workload and prints its report
/// as one JSON line on stdout.
///
///   perfbench_worker --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1>
///
/// Run it from the repository root: it reads bench/specs/ and writes its
/// artifacts under .bench_out/.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "ftmc/obs/registry.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_worker: " << why
            << "\nusage: perfbench_worker --workload <fig3-sweep|"
               "dbf-headroom|sim-faults|serve-warm> --seed <n> --seconds "
               "<s> --trace <0|1>\n";
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0.0)) usage("--seconds must be positive");
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  // The untraced run must not pay for library counters, whatever the
  // environment says; a traced run switches them on itself.
  ftmc::obs::Registry::global().enable(false);
  try {
    std::filesystem::create_directories(perfbench::kOutDir);
    perfbench::Report report;
    if (args.workload == "fig3-sweep") {
      report = perfbench::run_fig3_sweep(args);
    } else if (args.workload == "dbf-headroom") {
      report = perfbench::run_dbf_headroom(args);
    } else if (args.workload == "sim-faults") {
      report = perfbench::run_sim_faults(args);
    } else if (args.workload == "serve-warm") {
      report = perfbench::run_serve_warm(args);
    } else {
      usage("unknown workload " + args.workload);
    }
    std::cout << report.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_worker: " << args.workload << ": " << e.what()
              << "\n";
    return 1;
  }
}
