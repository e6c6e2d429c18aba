/// \file fleet_service_test.cpp
/// \brief End-to-end fleet test over real loopback TCP: a
///        CoordinatorService and in-process run_worker() loops, checking
///        completion, clean drain, and byte-identity with the
///        single-process runner.
#include "ftmc/fleet/service.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "ftmc/campaign/journal.hpp"
#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/fleet/worker.hpp"

#include "scratch_dir.hpp"

namespace ftmc::fleet {
namespace {

[[nodiscard]] campaign::CampaignSpec service_spec() {
  return campaign::parse_spec_text(R"({
    "name": "servicetest",
    "schedulers": ["edf_vd_killing"],
    "failure_probs": [1e-3, 1e-5],
    "utilizations": [0.3, 0.6, 0.9],
    "sets_per_point": 4,
    "seed": 20140601
  })");
}

TEST(CoordinatorService, TwoWorkersOverTcpMatchSingleProcessBytes) {
  const std::string solo_dir = scratch_dir("solo");
  campaign::RunnerOptions runner;
  runner.dir = solo_dir;
  ASSERT_TRUE(campaign::run_campaign(service_spec(), runner).complete);

  const std::string fleet_dir = scratch_dir("fleet");
  CoordinatorOptions coordinator_options;
  coordinator_options.dir = fleet_dir;
  coordinator_options.lease_cells = 2;
  ServiceOptions service_options;
  service_options.linger_ms = 10000;  // workers always get their goodbye
  CoordinatorService service(service_spec(), coordinator_options,
                             service_options);
  ASSERT_GT(service.port(), 0);

  std::vector<WorkerReport> reports(2);
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&service, &reports, w] {
      WorkerOptions options;
      options.port = service.port();
      options.name = "w" + std::to_string(w);
      options.poll_ms = 20;
      reports[static_cast<std::size_t>(w)] = run_worker(options);
    });
  }
  const campaign::CampaignResult result = service.serve();
  for (std::thread& worker : workers) worker.join();

  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.cells_total, 6u);
  EXPECT_EQ(reports[0].cells_computed + reports[1].cells_computed, 6u);
  EXPECT_EQ(campaign::read_file(solo_dir + "/journal.jsonl"),
            campaign::read_file(fleet_dir + "/journal.jsonl"));
  EXPECT_EQ(campaign::read_file(solo_dir + "/results.json"),
            campaign::read_file(fleet_dir + "/results.json"));
}

TEST(CoordinatorService, AlreadyCompleteCampaignDrainsOnLinger) {
  // A coordinator whose journal already covers the grid never sees a
  // worker; the linger clock alone must conclude serve().
  const std::string dir = scratch_dir("prefilled");
  campaign::RunnerOptions runner;
  runner.dir = dir;
  ASSERT_TRUE(campaign::run_campaign(service_spec(), runner).complete);

  CoordinatorOptions coordinator_options;
  coordinator_options.dir = dir;
  ServiceOptions service_options;
  service_options.linger_ms = 50;
  service_options.net.accept_poll_ms = 10;
  CoordinatorService service(service_spec(), coordinator_options,
                             service_options);
  const campaign::CampaignResult result = service.serve();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.cache_hits, 6u);
}

TEST(CoordinatorService, WorkerReconnectBudgetSurfacesDeadCoordinator) {
  std::uint16_t dead_port = 0;
  {
    CoordinatorOptions coordinator_options;
    ServiceOptions service_options;
    CoordinatorService probe(service_spec(), coordinator_options,
                             service_options);
    dead_port = probe.port();
  }
  WorkerOptions options;
  options.port = dead_port;
  options.connect_timeout_ms = 200;
  options.reconnect_attempts = 2;
  options.reconnect_backoff_ms = 10;
  EXPECT_THROW((void)run_worker(options), std::runtime_error);
}

}  // namespace
}  // namespace ftmc::fleet
