#include "ftmc/campaign/spec.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "ftmc/exec/seed.hpp"

namespace ftmc::campaign {

namespace {

using io::ParseError;
using io::json::Value;

[[nodiscard]] std::string_view distribution_name(
    taskgen::PeriodDistribution d) {
  return d == taskgen::PeriodDistribution::kUniform ? "uniform"
                                                    : "log_uniform";
}

/// Rejects keys outside `allowed` so spec typos fail loudly.
void check_keys(const Value& object, std::string_view context,
                const std::set<std::string_view>& allowed) {
  for (const auto& [key, value] : object.fields()) {
    if (allowed.count(key) == 0) {
      throw ParseError("campaign spec: unknown key \"" + key + "\" in " +
                       std::string(context));
    }
  }
}

[[nodiscard]] Dal parse_dal_or_throw(const Value& v,
                                     std::string_view context) {
  const std::optional<Dal> dal = parse_dal(v.as_string());
  if (!dal) {
    throw ParseError("campaign spec: bad DAL \"" + v.as_string() +
                     "\" in " + std::string(context) +
                     " (expected A..E)");
  }
  return *dal;
}

[[nodiscard]] GeneratorAxis parse_generator(const Value& v) {
  check_keys(v, "generator",
             {"u_min", "u_max", "period_min_ms", "period_max_ms",
              "period_distribution", "p_hi"});
  GeneratorAxis g;
  if (const Value* f = v.find("u_min")) g.u_min = f->as_number();
  if (const Value* f = v.find("u_max")) g.u_max = f->as_number();
  if (const Value* f = v.find("period_min_ms")) {
    g.period_min_ms = f->as_number();
  }
  if (const Value* f = v.find("period_max_ms")) {
    g.period_max_ms = f->as_number();
  }
  if (const Value* f = v.find("period_distribution")) {
    const std::string& name = f->as_string();
    if (name == "uniform") {
      g.period_distribution = taskgen::PeriodDistribution::kUniform;
    } else if (name == "log_uniform") {
      g.period_distribution = taskgen::PeriodDistribution::kLogUniform;
    } else {
      throw ParseError(
          "campaign spec: bad period_distribution \"" + name +
          "\" (expected \"uniform\" or \"log_uniform\")");
    }
  }
  if (const Value* f = v.find("p_hi")) g.p_hi = f->as_number();
  return g;
}

[[nodiscard]] std::string generator_json(const GeneratorAxis& g) {
  return io::json::Object{}
      .add_number("u_min", g.u_min)
      .add_number("u_max", g.u_max)
      .add_number("period_min_ms", g.period_min_ms)
      .add_number("period_max_ms", g.period_max_ms)
      .add_string("period_distribution",
                  distribution_name(g.period_distribution))
      .add_number("p_hi", g.p_hi)
      .str();
}

}  // namespace

std::string_view to_string(Scheduler scheduler) {
  switch (scheduler) {
    case Scheduler::kEdfVdKilling: return "edf_vd_killing";
    case Scheduler::kEdfVdDegradation: return "edf_vd_degradation";
    case Scheduler::kAmcRtb: return "amc_rtb";
    case Scheduler::kAmcRtbOpa: return "amc_rtb_opa";
    case Scheduler::kMcDbf: return "mc_dbf";
  }
  return "?";
}

std::optional<Scheduler> parse_scheduler(std::string_view text) {
  if (text == "edf_vd_killing") return Scheduler::kEdfVdKilling;
  if (text == "edf_vd_degradation") return Scheduler::kEdfVdDegradation;
  if (text == "amc_rtb") return Scheduler::kAmcRtb;
  if (text == "amc_rtb_opa") return Scheduler::kAmcRtbOpa;
  if (text == "mc_dbf") return Scheduler::kMcDbf;
  return std::nullopt;
}

AdaptationKind adaptation_of(Scheduler scheduler) noexcept {
  return scheduler == Scheduler::kEdfVdDegradation
             ? AdaptationKind::kDegradation
             : AdaptationKind::kKilling;
}

void CampaignSpec::validate() const {
  auto bad = [](const std::string& message) {
    throw ParseError("campaign spec: " + message);
  };
  if (name.empty()) bad("name must be non-empty");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) bad("name must match [A-Za-z0-9_-]+, got \"" + name + "\"");
  }
  if (schedulers.empty()) bad("schedulers must be non-empty");
  if (!mapping.valid()) {
    bad("mapping: HI must be strictly more critical than LO");
  }
  if (!(degradation_factor >= 1.0)) bad("degradation_factor must be >= 1");
  if (!(os_hours > 0.0)) bad("os_hours must be > 0");
  if (failure_probs.empty()) bad("failure_probs must be non-empty");
  for (const double f : failure_probs) {
    if (!(f > 0.0 && f < 1.0)) bad("failure_probs must lie in (0, 1)");
  }
  if (utilizations.empty()) bad("utilizations must be non-empty");
  for (const double u : utilizations) {
    if (!(u > 0.0)) bad("utilizations must be > 0");
  }
  if (sets_per_point < 1) bad("sets_per_point must be >= 1");
  if (!(generator.u_min > 0.0 && generator.u_max <= 1.0 &&
        generator.u_min <= generator.u_max)) {
    bad("generator: need 0 < u_min <= u_max <= 1");
  }
  if (!(generator.period_min_ms > 0.0 &&
        generator.period_min_ms <= generator.period_max_ms)) {
    bad("generator: need 0 < period_min_ms <= period_max_ms");
  }
  if (!(generator.p_hi > 0.0 && generator.p_hi < 1.0)) {
    bad("generator: p_hi must lie in (0, 1)");
  }
}

CampaignSpec parse_spec(const Value& doc) {
  check_keys(doc, "spec",
             {"name", "title", "schedulers", "mapping",
              "degradation_factor", "os_hours", "failure_probs",
              "utilizations", "sets_per_point", "seed", "generator"});
  CampaignSpec spec;
  spec.name = doc.at("name").as_string();
  if (const Value* f = doc.find("title")) spec.title = f->as_string();
  if (spec.title.empty()) spec.title = spec.name;

  for (const Value& item : doc.at("schedulers").items()) {
    const std::optional<Scheduler> s = parse_scheduler(item.as_string());
    if (!s) {
      throw ParseError(
          "campaign spec: unknown scheduler \"" + item.as_string() +
          "\" (expected edf_vd_killing, edf_vd_degradation, amc_rtb, "
          "amc_rtb_opa or mc_dbf)");
    }
    spec.schedulers.push_back(*s);
  }
  if (const Value* m = doc.find("mapping")) {
    check_keys(*m, "mapping", {"hi", "lo"});
    spec.mapping.hi = parse_dal_or_throw(m->at("hi"), "mapping.hi");
    spec.mapping.lo = parse_dal_or_throw(m->at("lo"), "mapping.lo");
  }
  if (const Value* f = doc.find("degradation_factor")) {
    spec.degradation_factor = f->as_number();
  }
  if (const Value* f = doc.find("os_hours")) spec.os_hours = f->as_number();
  for (const Value& item : doc.at("failure_probs").items()) {
    spec.failure_probs.push_back(item.as_number());
  }
  for (const Value& item : doc.at("utilizations").items()) {
    spec.utilizations.push_back(item.as_number());
  }
  if (const Value* f = doc.find("sets_per_point")) {
    spec.sets_per_point = static_cast<int>(f->as_uint64());
  }
  if (const Value* f = doc.find("seed")) spec.seed = f->as_uint64();
  if (const Value* f = doc.find("generator")) {
    spec.generator = parse_generator(*f);
  }
  spec.validate();
  return spec;
}

CampaignSpec parse_spec_text(std::string_view text) {
  return parse_spec(io::json::parse(text));
}

CampaignSpec load_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("campaign spec: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_spec_text(buffer.str());
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

std::string spec_to_json(const CampaignSpec& spec) {
  std::vector<std::string> schedulers;
  schedulers.reserve(spec.schedulers.size());
  for (const Scheduler s : spec.schedulers) {
    schedulers.push_back("\"" + std::string(to_string(s)) + "\"");
  }
  auto number_array = [](const std::vector<double>& values) {
    std::vector<std::string> out;
    out.reserve(values.size());
    for (const double v : values) out.push_back(io::json::number(v));
    return io::json::array(out);
  };
  return io::json::Object{}
      .add_string("name", spec.name)
      .add_string("title", spec.title)
      .add_raw("schedulers", io::json::array(schedulers))
      .add_raw("mapping", io::json::Object{}
                              .add_string("hi", ftmc::to_string(spec.mapping.hi))
                              .add_string("lo", ftmc::to_string(spec.mapping.lo))
                              .str())
      .add_number("degradation_factor", spec.degradation_factor)
      .add_number("os_hours", spec.os_hours)
      .add_raw("failure_probs", number_array(spec.failure_probs))
      .add_raw("utilizations", number_array(spec.utilizations))
      .add_int("sets_per_point", spec.sets_per_point)
      .add_string("seed", std::to_string(spec.seed))
      .add_raw("generator", generator_json(spec.generator))
      .str();
}

std::vector<CellSpec> expand_cells(const CampaignSpec& spec) {
  const std::size_t n_f = spec.failure_probs.size();
  const std::size_t n_u = spec.utilizations.size();
  std::vector<CellSpec> cells;
  cells.reserve(spec.schedulers.size() * n_f * n_u);
  for (const Scheduler scheduler : spec.schedulers) {
    for (std::size_t fi = 0; fi < n_f; ++fi) {
      for (std::size_t ui = 0; ui < n_u; ++ui) {
        CellSpec cell;
        cell.index = cells.size();
        cell.scheduler = scheduler;
        cell.failure_prob = spec.failure_probs[fi];
        cell.utilization = spec.utilizations[ui];
        // Scheduler-independent stream (see file comment of spec.hpp):
        // matches the historical fig3 per-point derivation exactly.
        cell.seed = exec::derive_seed(spec.seed, fi * n_u + ui);
        cell.mapping = spec.mapping;
        cell.degradation_factor = spec.degradation_factor;
        cell.os_hours = spec.os_hours;
        cell.sets_per_point = spec.sets_per_point;
        cell.generator = spec.generator;
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

std::string canonical_cell_json(const CellSpec& cell) {
  io::json::Object out;
  if (adaptation_of(cell.scheduler) == AdaptationKind::kDegradation) {
    out.add_number("degradation_factor", cell.degradation_factor);
  }
  out.add_number("failure_prob", cell.failure_prob)
      .add_raw("generator", generator_json(cell.generator))
      .add_raw("mapping", io::json::Object{}
                              .add_string("hi", ftmc::to_string(cell.mapping.hi))
                              .add_string("lo", ftmc::to_string(cell.mapping.lo))
                              .str())
      .add_number("os_hours", cell.os_hours)
      .add_string("scheduler", to_string(cell.scheduler))
      .add_string("seed", std::to_string(cell.seed))
      .add_int("sets_per_point", cell.sets_per_point)
      .add_number("utilization", cell.utilization);
  return out.str();
}

std::string cell_hash(const CellSpec& cell) {
  return content_hash(canonical_cell_json(cell));
}

}  // namespace ftmc::campaign
