/// \file merge_property_test.cpp
/// \brief Property: the finalized campaign directory is byte-identical
///        to the single-process reference for every worker count, every
///        (seeded) shuffle of lease completion order, and every resume
///        from a truncated coordinator journal.
///
/// This is the fleet subsystem's headline invariant, tested the blunt
/// way: drive the coordinator engine directly through handle() — no
/// sockets, so interleavings can be forced exactly — and compare whole
/// files with operator== afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "ftmc/campaign/journal.hpp"
#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/fleet/coordinator.hpp"
#include "ftmc/fleet/protocol.hpp"
#include "ftmc/io/json.hpp"

#include "scratch_dir.hpp"

namespace ftmc::fleet {
namespace {

[[nodiscard]] campaign::CampaignSpec property_spec() {
  return campaign::parse_spec_text(R"({
    "name": "mergeprop",
    "schedulers": ["edf_vd_killing", "amc_rtb"],
    "failure_probs": [1e-3, 1e-5],
    "utilizations": [0.3, 0.6, 0.9],
    "sets_per_point": 4,
    "seed": 20140601
  })");
}

struct Files {
  std::string journal;
  std::string results;
};

[[nodiscard]] Files files_of(const std::string& dir) {
  return {campaign::read_file(dir + "/journal.jsonl"),
          campaign::read_file(dir + "/results.json")};
}

/// The single-process reference bytes (computed once per suite).
[[nodiscard]] const Files& reference() {
  static const Files reference_files = [] {
    const std::string dir = scratch_dir("reference");
    campaign::RunnerOptions runner;
    runner.dir = dir;
    const campaign::CampaignResult result =
        campaign::run_campaign(property_spec(), runner);
    EXPECT_TRUE(result.complete);
    return files_of(dir);
  }();
  return reference_files;
}

struct PendingResult {
  std::string worker;
  std::uint64_t lease_id = 0;
  std::vector<ResultRecord> records;
};

/// Drives one campaign to completion: `workers` round-robin over lease
/// requests; completed leases are *submitted* in an order shuffled by
/// `seed` (in waves, so later leases can land before earlier ones).
void run_shuffled(const std::string& dir, int workers,
                  std::uint32_t seed) {
  const campaign::CampaignSpec spec = property_spec();
  const std::vector<campaign::CellSpec> cells =
      campaign::expand_cells(spec);
  CoordinatorOptions options;
  options.dir = dir;
  options.lease_cells = 2;
  Coordinator coordinator(spec, options);
  std::mt19937 rng(seed);

  for (int w = 0; w < workers; ++w) {
    (void)coordinator.handle(
        hello_to_json("w" + std::to_string(w)));
  }

  while (!coordinator.complete()) {
    // One wave: every worker grabs one lease (until drained), computes
    // it; then the wave's results arrive in shuffled order.
    std::vector<PendingResult> wave;
    for (int w = 0; w < workers; ++w) {
      const std::string worker = "w" + std::to_string(w);
      const io::json::Value grant =
          io::json::parse(coordinator.handle(lease_to_json(worker)));
      if (grant.at("type").as_string() != "lease") continue;
      PendingResult pending;
      pending.worker = worker;
      pending.lease_id = grant.at("lease_id").as_uint64();
      for (const io::json::Value& v : grant.at("indices").items()) {
        const std::size_t index =
            static_cast<std::size_t>(v.as_uint64());
        const campaign::CellCounts counts =
            campaign::run_cell(cells[index]);
        pending.records.push_back(ResultRecord{
            index,
            campaign::CellRecord{campaign::cell_hash(cells[index]),
                                 counts.accept_without,
                                 counts.accept_with}});
      }
      wave.push_back(std::move(pending));
    }
    ASSERT_FALSE(wave.empty()) << "drained without completing";
    std::shuffle(wave.begin(), wave.end(), rng);
    for (const PendingResult& pending : wave) {
      const io::json::Value ack = io::json::parse(coordinator.handle(
          result_to_json(pending.worker, pending.lease_id,
                         pending.records)));
      ASSERT_EQ(ack.at("type").as_string(), "ack");
      ASSERT_EQ(ack.at("rejected").as_uint64(), 0u);
    }
  }
}

TEST(MergeProperty, ByteIdenticalAcrossWorkerCountsAndOrders) {
  for (const int workers : {1, 2, 8}) {
    for (const std::uint32_t seed : {1u, 2u, 3u}) {
      const std::string dir = scratch_dir(
          "w" + std::to_string(workers) + "_s" + std::to_string(seed));
      run_shuffled(dir, workers, seed);
      const Files files = files_of(dir);
      EXPECT_EQ(files.journal, reference().journal)
          << "workers=" << workers << " seed=" << seed;
      EXPECT_EQ(files.results, reference().results)
          << "workers=" << workers << " seed=" << seed;
    }
  }
}

TEST(MergeProperty, ResumeFromTruncatedJournalIsByteIdentical) {
  // Crash the coordinator by truncating its journal at varying points —
  // including mid-line — and let a fresh coordinator finish the job.
  const std::string donor = scratch_dir("truncation_donor");
  run_shuffled(donor, 2, 7u);
  const std::string full_journal =
      campaign::read_file(donor + "/journal.jsonl");
  ASSERT_FALSE(full_journal.empty());

  for (const double fraction : {0.0, 0.33, 0.5, 0.95}) {
    const std::string dir =
        scratch_dir("trunc_" + std::to_string(fraction));
    const std::size_t cut = static_cast<std::size_t>(
        static_cast<double>(full_journal.size()) * fraction);
    {
      std::ofstream journal(dir + "/journal.jsonl", std::ios::binary);
      journal << full_journal.substr(0, cut);
    }
    run_shuffled(dir, 2, 11u);
    const Files files = files_of(dir);
    EXPECT_EQ(files.journal, reference().journal)
        << "fraction=" << fraction;
    EXPECT_EQ(files.results, reference().results)
        << "fraction=" << fraction;
  }
}

}  // namespace
}  // namespace ftmc::fleet
