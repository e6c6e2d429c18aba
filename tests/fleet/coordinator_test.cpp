/// \file coordinator_test.cpp
/// \brief Unit tests for fleet::Coordinator: the lease lifecycle
///        (issue, drain, expiry, reissue), idempotent result folding,
///        hash validation, and the byte-identity of the finalized
///        campaign directory against a single-process run.
///
/// Everything runs through handle() with a fake clock — no sockets, no
/// sleeps, fully deterministic.
#include "ftmc/fleet/coordinator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ftmc/campaign/journal.hpp"
#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/fleet/protocol.hpp"
#include "ftmc/io/json.hpp"

#include "scratch_dir.hpp"

namespace ftmc::fleet {
namespace {

[[nodiscard]] campaign::CampaignSpec small_spec() {
  return campaign::parse_spec_text(R"({
    "name": "fleettest",
    "schedulers": ["edf_vd_killing"],
    "failure_probs": [1e-3, 1e-5],
    "utilizations": [0.3, 0.6],
    "sets_per_point": 5,
    "seed": 20140601
  })");
}

struct FakeClock {
  std::shared_ptr<std::int64_t> now = std::make_shared<std::int64_t>(0);
  [[nodiscard]] ClockFn fn() const {
    return [now = now] { return *now; };
  }
  void advance(std::int64_t ms) { *now += ms; }
};

[[nodiscard]] io::json::Value call(Coordinator& coordinator,
                                   const std::string& request) {
  return io::json::parse(coordinator.handle(request));
}

/// Requests one lease; nullopt on drained/done.
[[nodiscard]] std::optional<std::pair<std::uint64_t,
                                      std::vector<std::size_t>>>
take_lease(Coordinator& coordinator, const std::string& worker) {
  const io::json::Value grant = call(coordinator, lease_to_json(worker));
  if (grant.at("type").as_string() != "lease") return std::nullopt;
  std::vector<std::size_t> indices;
  for (const io::json::Value& v : grant.at("indices").items()) {
    indices.push_back(static_cast<std::size_t>(v.as_uint64()));
  }
  return std::make_pair(grant.at("lease_id").as_uint64(),
                        std::move(indices));
}

/// Computes real records for a set of cell indices (run_cell is cheap at
/// sets_per_point = 5).
[[nodiscard]] std::vector<ResultRecord> records_for(
    const std::vector<campaign::CellSpec>& cells,
    const std::vector<std::size_t>& indices) {
  std::vector<ResultRecord> records;
  records.reserve(indices.size());
  for (const std::size_t index : indices) {
    const campaign::CellCounts counts = campaign::run_cell(cells[index]);
    records.push_back(ResultRecord{
        index, campaign::CellRecord{campaign::cell_hash(cells[index]),
                                    counts.accept_without,
                                    counts.accept_with}});
  }
  return records;
}

[[nodiscard]] CoordinatorOptions options_with(const FakeClock& clock,
                                              std::string dir = {},
                                              std::size_t lease_cells = 2) {
  CoordinatorOptions options;
  options.dir = std::move(dir);
  options.lease_cells = lease_cells;
  options.lease_ttl_ms = 1000;
  options.now_ms = clock.fn();
  return options;
}

TEST(Coordinator, WelcomeEchoesCanonicalSpecAndGridSize) {
  FakeClock clock;
  Coordinator coordinator(small_spec(), options_with(clock));
  const io::json::Value welcome =
      call(coordinator, hello_to_json("w0"));
  EXPECT_EQ(welcome.at("type").as_string(), "welcome");
  EXPECT_EQ(welcome.at("protocol").as_string(), kProtocolVersion);
  EXPECT_EQ(welcome.at("cells_total").as_uint64(), 4u);
  EXPECT_FALSE(welcome.at("complete").as_bool());
  // The embedded spec is the canonical form: re-expanding it yields the
  // coordinator's own grid (the invariant leases-by-index relies on).
  const campaign::CampaignSpec echoed =
      campaign::parse_spec(welcome.at("spec"));
  EXPECT_EQ(campaign::spec_to_json(echoed),
            campaign::spec_to_json(small_spec()));
  EXPECT_EQ(coordinator.active_workers(), 1u);
}

TEST(Coordinator, ProtocolMismatchIsAnError) {
  FakeClock clock;
  Coordinator coordinator(small_spec(), options_with(clock));
  const io::json::Value response = call(
      coordinator,
      "{\"type\":\"hello\",\"protocol\":\"ftmc-fleet-v0\",\"worker\":\"w\"}");
  EXPECT_EQ(response.at("type").as_string(), "error");
  EXPECT_EQ(coordinator.active_workers(), 0u);
}

TEST(Coordinator, MalformedRequestAnswersErrorNotThrow) {
  FakeClock clock;
  Coordinator coordinator(small_spec(), options_with(clock));
  EXPECT_EQ(call(coordinator, "not json").at("type").as_string(), "error");
  EXPECT_EQ(call(coordinator, "{\"type\":\"launch_missiles\"}")
                .at("type")
                .as_string(),
            "error");
}

TEST(Coordinator, LeasesPartitionTheGridThenDrain) {
  FakeClock clock;
  Coordinator coordinator(small_spec(), options_with(clock));
  std::set<std::size_t> seen;
  for (int i = 0; i < 2; ++i) {
    const auto lease = take_lease(coordinator, "w0");
    ASSERT_TRUE(lease.has_value());
    EXPECT_LE(lease->second.size(), 2u);
    for (const std::size_t index : lease->second) {
      EXPECT_TRUE(seen.insert(index).second) << "index leased twice";
    }
  }
  EXPECT_EQ(seen.size(), 4u);
  // Grid fully leased out: drained, not done (nothing completed yet).
  const io::json::Value drained =
      call(coordinator, lease_to_json("w0"));
  EXPECT_EQ(drained.at("type").as_string(), "drained");
  EXPECT_FALSE(drained.at("complete").as_bool());
}

TEST(Coordinator, ExpiredLeaseIsReissued) {
  FakeClock clock;
  Coordinator coordinator(small_spec(),
                          options_with(clock, {}, /*lease_cells=*/4));
  const auto lost = take_lease(coordinator, "crashed");
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->second.size(), 4u);
  // Within the TTL the grid stays drained for everyone else.
  EXPECT_EQ(call(coordinator, lease_to_json("w1")).at("type").as_string(),
            "drained");
  clock.advance(1001);
  const auto reissued = take_lease(coordinator, "w1");
  ASSERT_TRUE(reissued.has_value());
  EXPECT_NE(reissued->first, lost->first) << "lease ids are unique";
  EXPECT_EQ(std::set<std::size_t>(reissued->second.begin(),
                                  reissued->second.end()),
            std::set<std::size_t>(lost->second.begin(),
                                  lost->second.end()));
}

TEST(Coordinator, LateResultAfterExpiryScoresDuplicatesNotConflicts) {
  FakeClock clock;
  const campaign::CampaignSpec spec = small_spec();
  const std::vector<campaign::CellSpec> cells =
      campaign::expand_cells(spec);
  Coordinator coordinator(spec, options_with(clock, {}, 4));

  const auto lost = take_lease(coordinator, "slow");
  ASSERT_TRUE(lost.has_value());
  clock.advance(1001);
  const auto reissued = take_lease(coordinator, "w1");
  ASSERT_TRUE(reissued.has_value());
  const io::json::Value first_ack =
      call(coordinator, result_to_json("w1", reissued->first,
                                       records_for(cells,
                                                   reissued->second)));
  EXPECT_EQ(first_ack.at("accepted").as_uint64(), 4u);
  EXPECT_TRUE(first_ack.at("complete").as_bool());

  // The kill -9 survivor's answer finally arrives: pure duplicates.
  const io::json::Value late_ack =
      call(coordinator, result_to_json("slow", lost->first,
                                       records_for(cells, lost->second)));
  EXPECT_EQ(late_ack.at("accepted").as_uint64(), 0u);
  EXPECT_EQ(late_ack.at("duplicates").as_uint64(), 4u);
  EXPECT_TRUE(late_ack.at("complete").as_bool());
}

TEST(Coordinator, WrongHashIsRejectedAndNotMerged) {
  FakeClock clock;
  const campaign::CampaignSpec spec = small_spec();
  const std::vector<campaign::CellSpec> cells =
      campaign::expand_cells(spec);
  Coordinator coordinator(spec, options_with(clock, {}, 1));
  const auto lease = take_lease(coordinator, "w0");
  ASSERT_TRUE(lease.has_value());
  std::vector<ResultRecord> records =
      records_for(cells, lease->second);
  records[0].record.hash = "0123456789abcdef";  // skewed grid
  const io::json::Value ack = call(
      coordinator, result_to_json("w0", lease->first, records));
  EXPECT_EQ(ack.at("rejected").as_uint64(), 1u);
  EXPECT_EQ(ack.at("accepted").as_uint64(), 0u);
  EXPECT_EQ(coordinator.cells_completed(), 0u);
  // The rejected cell goes back to pending (at the back of the queue)
  // rather than waiting for the lease TTL: draining the grid re-covers
  // it.
  std::set<std::size_t> released;
  while (const auto retry = take_lease(coordinator, "w0")) {
    released.insert(retry->second.begin(), retry->second.end());
  }
  EXPECT_TRUE(released.count(lease->second.front()) == 1);
  EXPECT_EQ(released.size(), 4u);
}

TEST(Coordinator, DoneOnceComplete) {
  FakeClock clock;
  const campaign::CampaignSpec spec = small_spec();
  const std::vector<campaign::CellSpec> cells =
      campaign::expand_cells(spec);
  Coordinator coordinator(spec, options_with(clock, {}, 4));
  const auto lease = take_lease(coordinator, "w0");
  ASSERT_TRUE(lease.has_value());
  (void)call(coordinator, result_to_json("w0", lease->first,
                                         records_for(cells,
                                                     lease->second)));
  EXPECT_TRUE(coordinator.complete());
  EXPECT_EQ(call(coordinator, lease_to_json("w0")).at("type").as_string(),
            "done");
  // Farewell bookkeeping: bye retires the worker.
  const io::json::Value goodbye =
      call(coordinator, bye_to_json("w0", 4, 0.5, {}));
  EXPECT_EQ(goodbye.at("type").as_string(), "goodbye");
  EXPECT_TRUE(goodbye.at("complete").as_bool());
}

TEST(Coordinator, FinalizedDirMatchesSingleProcessRunByteForByte) {
  FakeClock clock;
  const campaign::CampaignSpec spec = small_spec();
  const std::vector<campaign::CellSpec> cells =
      campaign::expand_cells(spec);

  const std::string solo_dir = scratch_dir("solo");
  campaign::RunnerOptions runner;
  runner.dir = solo_dir;
  const campaign::CampaignResult solo =
      campaign::run_campaign(spec, runner);
  ASSERT_TRUE(solo.complete);

  const std::string fleet_dir = scratch_dir("fleet");
  Coordinator coordinator(spec, options_with(clock, fleet_dir, 3));
  (void)call(coordinator, hello_to_json("w0"));
  while (const auto lease = take_lease(coordinator, "w0")) {
    (void)call(coordinator,
               result_to_json("w0", lease->first,
                              records_for(cells, lease->second)));
  }
  ASSERT_TRUE(coordinator.complete());

  EXPECT_EQ(campaign::read_file(solo_dir + "/journal.jsonl"),
            campaign::read_file(fleet_dir + "/journal.jsonl"));
  EXPECT_EQ(campaign::read_file(solo_dir + "/results.json"),
            campaign::read_file(fleet_dir + "/results.json"));
  EXPECT_EQ(campaign::read_file(solo_dir + "/spec.json"),
            campaign::read_file(fleet_dir + "/spec.json"));
}

TEST(Coordinator, ResumesFromTruncatedJournal) {
  FakeClock clock;
  const campaign::CampaignSpec spec = small_spec();
  const std::vector<campaign::CellSpec> cells =
      campaign::expand_cells(spec);

  // Reference bytes from an uninterrupted single-process run.
  const std::string solo_dir = scratch_dir("resume_solo");
  campaign::RunnerOptions runner;
  runner.dir = solo_dir;
  ASSERT_TRUE(campaign::run_campaign(spec, runner).complete);

  // A coordinator that "crashed": two cells journaled, then a torn line.
  const std::string dir = scratch_dir("resume_fleet");
  {
    Coordinator first(spec, options_with(clock, dir, 2));
    const auto lease = take_lease(first, "w0");
    ASSERT_TRUE(lease.has_value());
    (void)call(first, result_to_json("w0", lease->first,
                                     records_for(cells, lease->second)));
  }
  {
    std::ofstream torn(dir + "/journal.jsonl", std::ios::app);
    torn << "{\"hash\":\"feedfeedfeedfe";  // crash mid-append
  }

  Coordinator resumed(spec, options_with(clock, dir, 2));
  EXPECT_EQ(resumed.cache_hits(), 2u);
  while (const auto lease = take_lease(resumed, "w1")) {
    (void)call(resumed, result_to_json("w1", lease->first,
                                       records_for(cells,
                                                   lease->second)));
  }
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(campaign::read_file(solo_dir + "/journal.jsonl"),
            campaign::read_file(dir + "/journal.jsonl"));
  EXPECT_EQ(campaign::read_file(solo_dir + "/results.json"),
            campaign::read_file(dir + "/results.json"));
}

TEST(Coordinator, FullyJournaledCampaignIsCompleteAtConstruction) {
  FakeClock clock;
  const campaign::CampaignSpec spec = small_spec();
  const std::string dir = scratch_dir("prefilled");
  campaign::RunnerOptions runner;
  runner.dir = dir;
  ASSERT_TRUE(campaign::run_campaign(spec, runner).complete);
  const std::string journal_before =
      campaign::read_file(dir + "/journal.jsonl");

  Coordinator coordinator(spec, options_with(clock, dir));
  EXPECT_TRUE(coordinator.complete());
  EXPECT_EQ(coordinator.cache_hits(), 4u);
  const io::json::Value welcome =
      call(coordinator, hello_to_json("w0"));
  EXPECT_TRUE(welcome.at("complete").as_bool());
  EXPECT_EQ(call(coordinator, lease_to_json("w0")).at("type").as_string(),
            "done");
  EXPECT_EQ(campaign::read_file(dir + "/journal.jsonl"), journal_before);
}

}  // namespace
}  // namespace ftmc::fleet
