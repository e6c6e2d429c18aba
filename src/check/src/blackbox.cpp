#include "ftmc/check/blackbox.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "ftmc/common/contracts.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/rt/blackbox_io.hpp"
#include "ftmc/sim/model.hpp"

namespace ftmc::check {

namespace {

/// `obj[field]` as an unsigned integer that fits T.
template <typename T>
T uint_field(const io::json::Value& obj, const char* field) {
  const std::uint64_t v = obj.at(field).as_uint64();
  FTMC_EXPECTS(v <= static_cast<std::uint64_t>(std::numeric_limits<T>::max()),
               std::string("blackbox: ") + field + " out of range");
  return static_cast<T>(v);
}

/// `obj[field]` as an int: a finite integral number in int's range (null,
/// "inf" and 1e300 are rejected rather than cast).
int int_field(const io::json::Value& obj, const char* field) {
  const double v = obj.at(field).as_number();
  FTMC_EXPECTS(v >= std::numeric_limits<int>::min() &&
                   v <= std::numeric_limits<int>::max() && v == std::trunc(v),
               std::string("blackbox: ") + field + " out of range");
  return static_cast<int>(v);
}

rt::HostTask parse_task(const io::json::Value& t) {
  rt::HostTask task;
  task.name = t.at("name").as_string();
  task.period = uint_field<rt::Tick>(t, "period");
  task.deadline = uint_field<rt::Tick>(t, "deadline");
  task.wcet = uint_field<rt::Tick>(t, "wcet");
  task.virtual_deadline = uint_field<rt::Tick>(t, "virtual_deadline");
  const std::string& crit = t.at("crit").as_string();
  FTMC_EXPECTS(crit == "HI" || crit == "LO",
               "blackbox: task crit must be HI or LO");
  task.crit = crit == "HI" ? CritLevel::HI : CritLevel::LO;
  task.max_attempts = uint_field<int>(t, "max_attempts");
  task.adapt_threshold = uint_field<int>(t, "adapt_threshold");
  task.priority = int_field(t, "priority");
  task.segments = uint_field<int>(t, "segments");
  task.failure_prob = t.at("failure_prob").as_number();
  task.checkpoint_overhead = t.at("checkpoint_overhead").as_number();
  return task;
}

rt::BlackBoxRecord parse_record(const io::json::Value& r) {
  rt::BlackBoxRecord rec;
  rec.seq = r.at("seq").as_uint64();
  rec.time = uint_field<rt::Tick>(r, "time");
  rt::RecordKind kind;
  FTMC_EXPECTS(
      rt::record_kind_from_string(r.at("kind").as_string().c_str(), kind),
      "blackbox: unknown record kind '" + r.at("kind").as_string() + "'");
  rec.kind = kind;
  rec.task = uint_field<std::uint32_t>(r, "task");
  rec.job = r.at("job").as_uint64();
  rec.detail = uint_field<std::uint32_t>(r, "detail");
  rec.release = uint_field<rt::Tick>(r, "release");
  rec.abs_deadline = uint_field<rt::Tick>(r, "deadline");
  return rec;
}

}  // namespace

BlackBoxDump parse_blackbox_json(std::string_view text) {
  const io::json::Value doc = io::json::parse(text);
  FTMC_EXPECTS(doc.at("format").as_string() == "ftmc-blackbox-v1",
               "blackbox: unsupported dump format '" +
                   doc.at("format").as_string() + "'");
  BlackBoxDump dump;

  const io::json::Value& cfg = doc.at("config");
  rt::PosixHostConfig& c = dump.config;
  FTMC_EXPECTS(
      policy_from_string(cfg.at("policy").as_string(), c.core.policy),
      "blackbox: unknown policy '" + cfg.at("policy").as_string() + "'");
  FTMC_EXPECTS(adaptation_from_string(cfg.at("adaptation").as_string(),
                                      c.core.adaptation),
               "blackbox: unknown adaptation '" +
                   cfg.at("adaptation").as_string() + "'");
  c.core.degradation_factor = cfg.at("degradation_factor").as_number();
  c.core.mode_reset_on_idle = cfg.at("mode_reset_on_idle").as_bool();
  c.core.admission_control = cfg.at("admission_control").as_bool();
  c.core.max_jobs = static_cast<std::size_t>(cfg.at("max_jobs").as_uint64());
  c.core.allow_job_growth = cfg.at("allow_job_growth").as_bool();
  c.core.black_box_capacity =
      static_cast<std::size_t>(cfg.at("black_box_capacity").as_uint64());
  c.horizon = static_cast<rt::Tick>(cfg.at("horizon").as_uint64());
  c.time_scale = cfg.at("time_scale").as_number();
  c.seed = cfg.at("seed").as_uint64();
  FTMC_EXPECTS(rt::fault_model_from_string(cfg.at("fault_model").as_string(),
                                           c.fault_model),
               "blackbox: unknown fault model '" +
                   cfg.at("fault_model").as_string() + "'");

  for (const io::json::Value& t : doc.at("tasks").items()) {
    dump.tasks.push_back(parse_task(t));
  }
  FTMC_EXPECTS(!dump.tasks.empty(), "blackbox: dump carries no tasks");

  dump.total_records = doc.at("total_records").as_uint64();
  dump.admission_records = doc.at("admission_records").as_uint64();
  dump.dropped_records = doc.at("dropped_records").as_uint64();
  for (const io::json::Value& r : doc.at("records").items()) {
    dump.records.push_back(parse_record(r));
  }
  FTMC_EXPECTS(dump.records.size() + dump.dropped_records ==
                   dump.total_records,
               "blackbox: record accounting does not add up");
  // Surviving records must be consecutive and end at the newest seq.
  for (std::size_t i = 0; i < dump.records.size(); ++i) {
    FTMC_EXPECTS(dump.records[i].seq == dump.dropped_records + i,
                 "blackbox: record sequence numbers are not contiguous");
  }
  return dump;
}

ReplayDiff replay_blackbox_through_sim(const BlackBoxDump& dump) {
  // Record `seq` names simulator event `seq - admission_records`; the
  // admission verdicts sit before event 0 and are only range-checked.
  std::vector<ExpectedEvent> expected;
  expected.reserve(dump.records.size());
  std::size_t admissions = 0;  // surviving admission records, all leading
  for (std::size_t i = 0; i < dump.records.size(); ++i) {
    const rt::BlackBoxRecord& r = dump.records[i];
    const bool admission = r.kind == rt::RecordKind::kAdmit ||
                           r.kind == rt::RecordKind::kReject;
    if (admission != (r.seq < dump.admission_records)) {
      ReplayDiff diff;
      diff.posix_events = dump.records.size();
      diff.first_divergence = i;
      diff.message = std::string(admission ? "admission" : "scheduling") +
                     " record " + std::to_string(r.seq) +
                     (admission ? " after" : " inside") +
                     " the admission prefix";
      return diff;
    }
    if (admission) {
      ++admissions;
      continue;
    }
    // RecordKind 0-9 mirror EventKind (static_asserted in rt/core.cpp).
    expected.push_back(
        {static_cast<std::size_t>(r.seq - dump.admission_records),
         {r.time, static_cast<rt::EventKind>(r.kind), r.task, r.job, r.detail,
          r.release, r.abs_deadline}});
  }
  // The simulator must keep enough trace to cover the highest sequence
  // number the dump can name.
  rt::PosixHostConfig cfg = dump.config;
  cfg.trace_capacity = static_cast<std::size_t>(dump.total_records);
  ReplayDiff diff = replay_events(dump.tasks, cfg, expected, "blackbox",
                                  /*whole_stream=*/false);
  diff.posix_events = dump.records.size();
  if (!diff.identical) diff.first_divergence += admissions;
  return diff;
}

Outcome p_blackbox_replay(const Case& c, const PropertyContext& ctx) {
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  std::vector<rt::HostTask> tasks =
      sim::build_sim_tasks(c.ts, c.n_hi, c.n_lo, c.n_adapt, 0.75);
  // Inflated fault rate so re-executions, mode switches and degraded
  // releases occur inside the bounded window (mirrors the bernoulli
  // replay property).
  for (rt::HostTask& t : tasks) t.failure_prob = 0.05;

  rt::PosixHostConfig cfg;
  cfg.core.policy = PolicyKind::kEdfVd;
  cfg.core.adaptation = AdaptationKind::kDegradation;
  cfg.core.degradation_factor = std::max(c.degradation_factor, 1.0);
  cfg.core.mode_reset_on_idle = true;
  cfg.core.allow_job_growth = true;
  // Deliberately tiny ring: busy cases wrap many times over, so the
  // property exercises exactly the alignment a post-mortem relies on.
  cfg.core.black_box_capacity = 48;
  cfg.horizon = std::min<sim::Tick>(
      bounded_hyperperiod(c.ts, ctx.max_sim_horizon), 2'000'000);
  cfg.time_scale = 0.0;
  cfg.seed = c.seed;
  cfg.fault_model = rt::FaultModel::kBernoulli;
  cfg.trace_capacity = 200'000;

  rt::PosixHost host(tasks, cfg);
  const rt::PosixResult result = host.run();
  if (ctx.registry != nullptr) {
    ctx.registry->counter("check.blackbox_replays").inc();
  }

  std::ostringstream os;
  rt::write_blackbox_json(os, tasks, cfg, result);
  BlackBoxDump dump;
  try {
    dump = parse_blackbox_json(os.str());
  } catch (const std::exception& e) {
    return Outcome::fail(std::string("blackbox dump does not parse back: ") +
                         e.what());
  }
  if (dump.total_records != result.blackbox_total ||
      dump.records.size() != result.blackbox.size() ||
      dump.admission_records != result.blackbox_admissions) {
    return Outcome::fail("blackbox dump round-trip lost records");
  }
  const ReplayDiff diff = replay_blackbox_through_sim(dump);
  if (diff.identical) return Outcome::pass();
  std::ostringstream msg;
  msg << "blackbox replay: " << diff.message << " (seed=" << c.seed
      << ", horizon=" << cfg.horizon << ")";
  return Outcome::fail(msg.str());
}

}  // namespace ftmc::check
