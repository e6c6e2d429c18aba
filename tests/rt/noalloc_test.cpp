// Acceptance test of the no-allocation contract (core.hpp): after
// `Core::start()` the runtime core performs no heap allocation, however
// busy the schedule — verified with a global operator-new hook.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "ftmc/rt/core.hpp"

namespace rt = ftmc::rt;
using ftmc::CritLevel;
using rt::Tick;

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

namespace {

// A host that never allocates: fixed execution times, a deterministic
// fault pattern, events counted instead of stored.
class StaticHost final : public rt::Host {
 public:
  std::size_t events = 0;
  std::size_t fault_calls = 0;

  Tick sample_segment_time(std::uint32_t) override { return 100; }
  bool sample_fault(std::uint32_t, int faults_so_far) override {
    // Fault every 7th verdict on the first attempt: exercises the
    // re-execution path and (for HI tasks) the mode switch.
    ++fault_calls;
    return faults_so_far == 0 && fault_calls % 7 == 0;
  }
  void emit(const rt::Event&) override { ++events; }
};

rt::TaskParams task(Tick period, CritLevel crit) {
  rt::TaskParams p;
  p.period = period;
  p.deadline = period;
  p.wcet = 100;
  p.virtual_deadline = period / 2;
  p.crit = crit;
  p.max_attempts = 2;
  p.adapt_threshold = 1;
  return p;
}

// Drives a dense schedule entirely through the core's public interface:
// periodic releases, dispatch, faults, mode switches, kills / degraded
// deadlines, idle resets. Returns the number of jobs completed.
std::uint64_t drive(rt::Core& core, Tick horizon) {
  const std::size_t n = core.num_tasks();
  Tick next_release[8] = {};  // fixed-size: the driver must not allocate
  Tick now = 0;
  while (now < horizon) {
    for (std::uint32_t t = 0; t < n; ++t) {
      if (next_release[t] <= now && core.release_allowed(t)) {
        core.on_release(t, now);
      }
      if (next_release[t] <= now) {
        next_release[t] =
            now + static_cast<Tick>(core.current_period(t));
      }
    }
    if (!core.has_ready()) {
      core.on_idle(now);
      Tick next = horizon;
      for (std::uint32_t t = 0; t < n; ++t) {
        next = std::min(next, next_release[t]);
      }
      now = next > now ? next : now + 1;
      continue;
    }
    core.dispatch(now);
    Tick until = now + core.running_remaining();
    for (std::uint32_t t = 0; t < n; ++t) {
      if (next_release[t] > now) until = std::min(until, next_release[t]);
    }
    core.run_for(until - now);
    now = until;
    if (core.has_ready() && core.running_remaining() == 0) {
      core.on_segment_boundary(now);
    }
  }
  std::uint64_t completed = 0;
  for (std::uint32_t t = 0; t < n; ++t) {
    completed += core.task_counters(t).completed;
  }
  return completed;
}

class RtNoAlloc : public ::testing::TestWithParam<ftmc::AdaptationKind> {};

}  // namespace

TEST_P(RtNoAlloc, NoHeapAllocationAfterStart) {
  StaticHost host;
  rt::CoreConfig cfg;
  cfg.policy = ftmc::PolicyKind::kEdfVd;
  cfg.adaptation = GetParam();
  cfg.degradation_factor =
      GetParam() == ftmc::AdaptationKind::kDegradation ? 4.0 : 1.0;
  cfg.mode_reset_on_idle = true;  // exercise both switch directions
  cfg.max_jobs = 16;
  cfg.allow_job_growth = false;   // the embedded-target contract
  // A ring far smaller than the event count: the flight recorder wraps
  // thousands of times during the run, and every record() lands inside
  // the no-alloc window below (the ring itself is allocated in the
  // constructor). Dumping is allowed to allocate; recording is not.
  cfg.black_box_capacity = 64;
  rt::Core core(cfg, host);
  core.add_task(task(1'000, CritLevel::HI));
  core.add_task(task(2'000, CritLevel::HI));
  core.add_task(task(1'500, CritLevel::LO));
  core.add_task(task(4'000, CritLevel::LO));

  const std::size_t before_start = g_allocations;
  core.start();
  // Positive control: start() is where the pre-allocation happens, so the
  // hook must have observed it (otherwise this whole test is vacuous).
  ASSERT_GT(g_allocations, before_start)
      << "operator-new hook is not active";

  const std::size_t baseline = g_allocations;
  const std::uint64_t completed = drive(core, /*horizon=*/1'000'000);
  const std::size_t during_run = g_allocations - baseline;

  EXPECT_EQ(during_run, 0u)
      << "the core allocated " << during_run
      << " time(s) after start(); the no-alloc contract is broken";
  // The schedule must actually have been busy for the claim to mean
  // anything: hundreds of completions, faults sampled, events emitted.
  EXPECT_GT(completed, 100u);
  EXPECT_GT(host.events, 1000u);
  EXPECT_GT(host.fault_calls, 100u);
  EXPECT_GT(core.counters().mode_switches, 0u);
  // Recording was live the whole time: one black-box record per emitted
  // event plus the four admission verdicts, with the ring full and the
  // overflow counted rather than allocated around.
  EXPECT_EQ(core.black_box().total(),
            host.events + core.black_box_admissions());
  EXPECT_EQ(core.black_box().size(), 64u);
  EXPECT_EQ(core.black_box().dropped(), core.black_box().total() - 64u);
}

INSTANTIATE_TEST_SUITE_P(AllAdaptations, RtNoAlloc,
                         ::testing::Values(ftmc::AdaptationKind::kNone,
                                           ftmc::AdaptationKind::kKilling,
                                           ftmc::AdaptationKind::kDegradation));
