// Acceptance test of the analysis fast paths' allocation discipline:
// after a warm-up call (thread_local workspaces size themselves on first
// use), the steady-state analysis entry points — the merge-scan EDF
// demand test, demand_bound, and the PFH bound family — perform zero heap
// allocations, verified with the same global operator-new hook as
// tests/rt/noalloc_test.cpp. analyze_mc_dbf is deliberately not covered:
// its McDbfAnalysis result owns a virtual-deadline vector, so the
// returned value itself must allocate.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "ftmc/core/analysis.hpp"
#include "ftmc/core/ft_task.hpp"
#include "ftmc/core/profiles.hpp"
#include "ftmc/mcs/edf.hpp"

namespace {

// Global allocation counter bumped by the replaced operator new below.
// Not atomic on purpose: this test is single-threaded, and the counter
// must not itself perturb codegen.
std::size_t g_allocations = 0;

}  // namespace

// GCC pairs the replaced operator new with the std::free in the replaced
// delete and warns about the mismatch; pairing them this way is exactly
// what a minimal counting allocator does.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ftmc {
namespace {

/// Eight tasks with constrained deadlines (D = T/2) so edf_schedulable
/// takes the merge-scan, not the D >= T shortcut.
std::vector<mcs::SporadicTask> constrained_view() {
  std::vector<mcs::SporadicTask> view;
  for (int i = 0; i < 8; ++i) {
    const Millis period = 20.0 + 10.0 * i;
    view.push_back({period, period / 2.0, 1.0 + 0.25 * i});
  }
  return view;
}

core::FtTaskSet mixed_set() {
  return core::FtTaskSet({{"h1", 50.0, 50.0, 6.0, Dal::B, 1e-4},
                          {"h2", 100.0, 100.0, 9.0, Dal::B, 2e-4},
                          {"h3", 200.0, 200.0, 12.0, Dal::B, 5e-5},
                          {"l1", 40.0, 40.0, 4.0, Dal::C, 1e-3},
                          {"l2", 80.0, 80.0, 7.0, Dal::C, 2e-3},
                          {"l3", 160.0, 160.0, 11.0, Dal::C, 5e-4}},
                         {Dal::B, Dal::C});
}

/// Runs `fn` once for warm-up, then asserts the next `rounds` invocations
/// allocate nothing.
template <typename Fn>
void expect_steady_state_noalloc(const char* what, Fn&& fn, int rounds = 16) {
  fn();  // warm-up: thread_local workspaces size themselves here
  const std::size_t baseline = g_allocations;
  for (int i = 0; i < rounds; ++i) fn();
  EXPECT_EQ(g_allocations - baseline, 0u)
      << what << " allocated " << (g_allocations - baseline)
      << " time(s) in steady state";
}

TEST(AnalysisNoAlloc, HookIsActive) {
  const std::size_t before = g_allocations;
  std::vector<int>* v = new std::vector<int>(64);
  delete v;
  // Positive control: without this the steady-state assertions below
  // would be vacuous.
  ASSERT_GT(g_allocations, before) << "operator-new hook is not active";
}

TEST(AnalysisNoAlloc, EdfDemandTestIsSteadyStateAllocationFree) {
  const std::vector<mcs::SporadicTask> view = constrained_view();
  double sink = 0.0;
  expect_steady_state_noalloc("edf_schedulable", [&] {
    const mcs::EdfDbfResult r = mcs::edf_schedulable(view);
    sink += r.tested_up_to + (r.schedulable ? 1.0 : 0.0);
  });
  expect_steady_state_noalloc("demand_bound", [&] {
    sink += mcs::demand_bound(view, 500.0);
  });
  EXPECT_GT(sink, 0.0);
}

TEST(AnalysisNoAlloc, PfhBoundsAreSteadyStateAllocationFree) {
  const core::FtTaskSet ts = mixed_set();
  const core::PerTaskProfile n = core::uniform_profile(ts, 3, 2);
  const core::PerTaskProfile n_adapt = core::uniform_profile(ts, 2, 0);
  core::KillingBoundOptions opt;
  opt.os_hours = 1.0;
  double sink = 0.0;

  expect_steady_state_noalloc("pfh_plain", [&] {
    sink += core::pfh_plain(ts, n, CritLevel::LO) +
            core::pfh_plain(ts, n, CritLevel::HI);
  });
  expect_steady_state_noalloc("survival_no_trigger", [&] {
    sink += core::survival_no_trigger(ts, n_adapt, 3'600'000.0).log();
  });
  expect_steady_state_noalloc("pfh_lo_killing", [&] {
    sink += core::pfh_lo_killing(ts, n, n_adapt, opt);
  });
  expect_steady_state_noalloc("pfh_lo_degradation", [&] {
    sink += core::pfh_lo_degradation(ts, n, n_adapt, 1.0);
  });
  EXPECT_GT(sink, 0.0);
}

TEST(AnalysisNoAlloc, AdaptationDispatchIsSteadyStateAllocationFree) {
  const core::FtTaskSet ts = mixed_set();
  double sink = 0.0;
  for (const AdaptationKind kind :
       {AdaptationKind::kNone, AdaptationKind::kKilling,
        AdaptationKind::kDegradation}) {
    core::AdaptationModel model;
    model.kind = kind;
    expect_steady_state_noalloc("pfh_lo_under_adaptation", [&] {
      sink += core::pfh_lo_under_adaptation(ts, 3, 2, 2, model);
    });
  }
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace ftmc
