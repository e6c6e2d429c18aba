/// serve-warm: one closed-loop client on one loopback connection to an
/// in-process serve::TcpServer with one analysis thread. Each round asks
/// a fixed pool of queries again (all answer-cache hits once primed) in
/// a shuffled order, plus one fresh query the cache has not seen, in
/// batches of kBatch. One item is one query; the latency unit is one
/// request round trip.
#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ftmc/campaign/runner.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/exec/seed.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/mcs/fixed_priority.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/serve/client.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/serve/tcp.hpp"
#include "ftmc/taskgen/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftmc;

constexpr int kEdfVdQueries = 256; ///< fts, EDF-VD killing / degradation
constexpr int kAdmitQueries = 79;  ///< runtime-core admission verdicts
/// fts queries naming amc_rtb on implicit-deadline sets. They come from a
/// fixed seed, not the run's: see kAmcSliceSeed.
constexpr int kAmcQueries = 16;
/// The amc_rtb slice is the same in every run, so the share of its
/// queries that fail the reference check is too.
constexpr std::uint64_t kAmcSliceSeed = 20140601;
constexpr std::size_t kBatch = 32;
constexpr int kSetupReps = 5;
/// Every kFreshCheckStride-th fresh query is re-analysed for the check.
constexpr std::uint64_t kFreshCheckStride = 16;
/// Rounds the in-process probes replay in the traced run.
constexpr int kProbeRounds = 200;
constexpr campaign::Scheduler kFreshScheduler =
    campaign::Scheduler::kEdfVdKilling;
/// p95 leaves about 200 of a window's requests beyond it.
constexpr double kTailPct = 95.0;

struct Query {
  std::string json;      ///< the query object sent to the server
  std::string expected;  ///< the result item local analysis gives
  bool amc = false;      ///< member of the amc_rtb slice
};

std::string fts_query_json(const core::FtTaskSet& ts,
                           campaign::Scheduler scheduler) {
  return io::json::Object{}
      .add_string("query", "fts")
      .add_string("scheduler", campaign::to_string(scheduler))
      .add_raw("task_set", io::task_set_to_json(ts))
      .str();
}

std::string ok_item(std::string_view kind, const std::string& answer) {
  return io::json::Object{}
      .add_bool("ok", true)
      .add_string("query", kind)
      .add_raw("answer", answer)
      .str();
}

/// The fts item of local analysis. The EDF-VD family runs the server's
/// own configuration (the closed-form instantiations); an amc_rtb query
/// runs FT-S with AmcRtbTest itself on materialized sets.
std::string local_fts_item(const core::FtTaskSet& ts,
                           campaign::Scheduler scheduler) {
  core::FtsConfig cfg;
  cfg.adaptation.kind = campaign::adaptation_of(scheduler);
  cfg.adaptation.degradation_factor = 6.0;
  cfg.prefer_no_adaptation = true;
  if (scheduler == campaign::Scheduler::kAmcRtb) {
    cfg.test = std::make_shared<mcs::AmcRtbTest>();
    cfg.use_closed_form_umc = false;
  }
  return ok_item("fts", io::fts_result_to_json(core::ft_schedule(ts, cfg)));
}

/// End offset of the JSON value starting at `pos` (strings, numbers,
/// literals, nested arrays/objects).
std::size_t value_end(std::string_view s, std::size_t pos) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = pos; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) return i + 1;
      if (depth < 0) return i;
    } else if (depth == 0 && c == ',') {
      return i;
    }
  }
  return s.size();
}

/// The result items of an analyze response, as the bytes the server
/// wrote; empty if the response has no results array.
std::vector<std::string_view> result_items(std::string_view response) {
  std::vector<std::string_view> items;
  const std::size_t key = response.find("\"results\":[");
  if (key == std::string_view::npos) return items;
  std::size_t pos = key + 11;
  while (pos < response.size() && response[pos] != ']') {
    const std::size_t end = value_end(response, pos);
    items.push_back(response.substr(pos, end - pos));
    pos = end < response.size() && response[end] == ',' ? end + 1 : end;
  }
  return items;
}

std::string analyze_request(const std::string& trace_id,
                            const std::vector<const std::string*>& queries) {
  std::string body = "[";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) body += ",";
    body += *queries[i];
  }
  body += "]";
  return io::json::Object{}
      .add_string("type", "analyze")
      .add_string("trace_id", trace_id)
      .add_raw("queries", body)
      .str();
}

/// A running TcpServer on its own thread, with one client connection.
class Endpoint {
 public:
  Endpoint() {
    serve::ServerOptions opt;
    opt.threads = 1;
    server_ = std::make_unique<serve::Server>(opt);
    tcp_ = std::make_unique<serve::TcpServer>(*server_, serve::TcpOptions{});
    thread_ = std::thread([this] { tcp_->serve(); });
    try {
      client_ = std::make_unique<serve::Client>("127.0.0.1", tcp_->port());
    } catch (...) {
      tcp_->stop();
      thread_.join();
      throw;
    }
  }
  ~Endpoint() {
    client_.reset();
    tcp_->stop();
    thread_.join();
  }
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] std::string call(const std::string& request) {
    return client_->call(request);
  }

 private:
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::TcpServer> tcp_;
  std::thread thread_;
  std::unique_ptr<serve::Client> client_;
};

class ServeWarm {
 public:
  explicit ServeWarm(const Args& args) : args_(args) { build_pool(); }

  /// Server start plus a cache-priming pass over the pool.
  void setup() {
    endpoint_ = std::make_unique<Endpoint>();
    seen_.assign(pool_.size(), false);
    std::vector<std::size_t> order(pool_.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t b = 0; b < order.size(); b += kBatch) {
      std::vector<std::size_t> batch(
          order.begin() + b, order.begin() + std::min(order.size(), b + kBatch));
      (void)exchange(batch, nullptr);
    }
  }

  /// Stops the server (the accept loop notices within its poll period).
  void teardown() { endpoint_.reset(); }

  void round(std::uint64_t index, RoundOutput& out) {
    std::vector<std::size_t> order(pool_.size());
    std::iota(order.begin(), order.end(), 0);
    std::mt19937_64 rng(exec::derive_seed(args_.seed, 5000 + index));
    std::shuffle(order.begin(), order.end(), rng);
    // One fresh query per round; a replayed round asks a new one too,
    // so every round costs one cache miss.
    const std::uint64_t fresh_index = fresh_count_++;
    const std::string fresh = fresh_query(fresh_index);
    const std::size_t fresh_slot = rng() % (order.size() / kBatch);
    for (std::size_t b = 0; b < order.size(); b += kBatch) {
      std::vector<std::size_t> batch(
          order.begin() + b, order.begin() + std::min(order.size(), b + kBatch));
      const bool with_fresh = b / kBatch == fresh_slot;
      // Process CPU time covers the client, the server's threads and the
      // kernel's loopback work of the one request in flight.
      const double cpu0 = process_cpu_s();
      const std::string response =
          exchange(batch, with_fresh ? &fresh : nullptr, &out.failed);
      out.unit_us.push_back((process_cpu_s() - cpu0) * 1e6);
      out.items += batch.size() + (with_fresh ? 1 : 0);
      if (with_fresh && fresh_index % kFreshCheckStride == 0) {
        const auto items = result_items(response);
        fresh_answers_.emplace_back(
            fresh_index, items.empty() ? std::string() : std::string(items.back()));
      }
    }
  }

  void set_tracing(bool on) {
    tracer_.enable(on);
    obs::Registry::global().enable(on);
    if (on) {
      requests0_ = requests_;
      round_trip_s0_ = round_trip_s_;
      hits0_ = counter("serve.cache_hits");
      queries0_ = counter("serve.queries_total");
      bytes0_ = counter("serve.bytes_in") + counter("serve.bytes_out");
    } else {
      traced_requests_ = requests_ - requests0_;
      traced_round_trip_s_ = round_trip_s_ - round_trip_s0_;
      hit_ratio_ = static_cast<double>(counter("serve.cache_hits") - hits0_) /
                   static_cast<double>(counter("serve.queries_total") - queries0_);
      bytes_ = static_cast<double>(counter("serve.bytes_in") +
                                   counter("serve.bytes_out") - bytes0_);
    }
  }

  void layer_metrics(Report& report, const Measured& m) {
    const double requests = static_cast<double>(traced_requests_);
    const double round_trip_us = traced_round_trip_s_ * 1e6 / requests;
    report.set("serve.cache_hit_ratio", hit_ratio_);
    report.set("net.bytes_per_request", bytes_ / requests);
    report.set("obs.trace_overhead", trace_overhead(m));

    // In-process probes on the same kind of stream: JSON parsing of the
    // request bytes, and Server::handle on a server primed with the pool.
    serve::ServerOptions opt;
    opt.threads = 1;
    serve::Server local(opt);
    for (std::size_t b = 0; b < pool_.size(); b += kBatch) {
      std::vector<const std::string*> qs;
      for (std::size_t i = b; i < std::min(pool_.size(), b + kBatch); ++i) {
        qs.push_back(&pool_[i].json);
      }
      (void)local.handle(analyze_request("probe-prime", qs));
    }
    obs::Registry::global().enable(true);
    double parse_s = 0.0, handle_s = 0.0;
    std::size_t probed = 0;
    std::mt19937_64 rng(exec::derive_seed(args_.seed, 6000));
    for (int r = 0; r < kProbeRounds; ++r) {
      const std::string fresh = fresh_query(fresh_count_++);
      std::vector<std::size_t> order(pool_.size());
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), rng);
      for (std::size_t b = 0; b < order.size(); b += kBatch) {
        std::vector<const std::string*> qs;
        for (std::size_t i = b; i < std::min(order.size(), b + kBatch); ++i) {
          qs.push_back(&pool_[order[i]].json);
        }
        if (b == 0) qs.push_back(&fresh);
        const std::string request = analyze_request("probe", qs);
        double t0 = now_s();
        (void)io::json::parse(request);
        parse_s += now_s() - t0;
        t0 = now_s();
        (void)local.handle(request);
        handle_s += now_s() - t0;
        ++probed;
      }
    }
    obs::Registry::global().enable(false);
    const double handle_us = handle_s * 1e6 / static_cast<double>(probed);
    report.set("io.parse_us_per_request", parse_s * 1e6 / static_cast<double>(probed));
    report.set("serve.handle_us_per_request", handle_us);
    report.set("net.transport_us_per_request", round_trip_us - handle_us);
  }

  void check(Report& report) {
    report.check(mismatched_responses_ == 0,
                 std::to_string(mismatched_responses_) +
                     " responses differ from local analysis outside the "
                     "amc_rtb slice");
    report.check(bad_trace_ids_ == 0,
                 std::to_string(bad_trace_ids_) + " trace ids not echoed");
    report.check(bad_cache_hits_ == 0,
                 std::to_string(bad_cache_hits_) +
                     " responses report a cache_hits count that differs from "
                     "the queries seen earlier in the stream");
    for (const auto& [index, item] : fresh_answers_) {
      report.check(item == local_fts_item(fresh_task_set(index), kFreshScheduler),
                   "fresh query " + std::to_string(index) +
                       " differs from local analysis");
    }
  }

  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  static std::uint64_t counter(const char* name) {
    return obs::Registry::global().counter(name).value();
  }

  /// The fixed query pool: EDF-VD fts and admit queries from the run's
  /// seed, the amc_rtb slice from kAmcSliceSeed.
  void build_pool() {
    taskgen::Rng rng(exec::derive_seed(args_.seed, 4));
    std::uniform_real_distribution<double> util(0.3, 0.95);
    const auto draw = [&](taskgen::Rng& g, Dal lo, double f) {
      taskgen::GeneratorParams p;
      p.target_utilization = util(g);
      p.failure_prob = f;
      p.mapping = {Dal::B, lo};
      return taskgen::generate_task_set(p, g);
    };
    for (int i = 0; i < kEdfVdQueries; ++i) {
      const bool killing = i % 2 == 0;
      const auto scheduler = killing ? campaign::Scheduler::kEdfVdKilling
                                     : campaign::Scheduler::kEdfVdDegradation;
      const core::FtTaskSet ts =
          draw(rng, killing ? Dal::D : Dal::C, i % 4 < 2 ? 1e-3 : 1e-5);
      pool_.push_back({fts_query_json(ts, scheduler), local_fts_item(ts, scheduler)});
    }
    serve::Server local;  // cold: admit answers come from its rt::Core
    for (int i = 0; i < kAdmitQueries; ++i) {
      const core::FtTaskSet ts = draw(rng, Dal::C, 1e-5);
      Query q;
      q.json = io::json::Object{}
                   .add_string("query", "admit")
                   .add_string("scheduler", "edf_vd_killing")
                   .add_int("n_hi", 3)
                   .add_int("n_lo", 2)
                   .add_int("n_adapt", 1)
                   .add_raw("task_set", io::task_set_to_json(ts))
                   .str();
      const std::string response =
          local.handle(analyze_request("local", {&q.json}));
      const auto items = result_items(response);
      if (items.size() != 1) throw std::runtime_error("local admit failed");
      q.expected = std::string(items[0]);
      pool_.push_back(std::move(q));
    }
    taskgen::Rng amc_rng(kAmcSliceSeed);
    for (int i = 0; i < kAmcQueries; ++i) {
      const core::FtTaskSet ts = draw(amc_rng, Dal::D, i % 2 == 0 ? 1e-3 : 1e-5);
      pool_.push_back({fts_query_json(ts, campaign::Scheduler::kAmcRtb),
                       local_fts_item(ts, campaign::Scheduler::kAmcRtb), true});
    }
  }

  /// The task set of fresh query number `index`, derived from the seed
  /// and the index; the query is EDF-VD killing fts.
  [[nodiscard]] core::FtTaskSet fresh_task_set(std::uint64_t index) const {
    taskgen::Rng rng(exec::derive_seed(args_.seed, 1'000'000 + index));
    taskgen::GeneratorParams p;
    p.target_utilization = 0.3 + 0.6 * std::uniform_real_distribution<double>()(rng);
    p.failure_prob = 1e-5;
    p.mapping = {Dal::B, Dal::D};
    return taskgen::generate_task_set(p, rng);
  }
  [[nodiscard]] std::string fresh_query(std::uint64_t index) const {
    return fts_query_json(fresh_task_set(index), kFreshScheduler);
  }

  /// One request round trip for the pool entries in `batch` (plus the
  /// fresh query, if any), checked against local analysis. amc_rtb
  /// queries that fail their check are counted into `failed`.
  std::string exchange(const std::vector<std::size_t>& batch,
                       const std::string* fresh,
                       std::uint64_t* failed = nullptr) {
    std::vector<const std::string*> qs;
    std::size_t expected_hits = 0;
    for (std::size_t i : batch) {
      qs.push_back(&pool_[i].json);
      if (seen_[i]) ++expected_hits;
    }
    if (fresh != nullptr) qs.push_back(fresh);
    const std::string trace_id = "pb-" + std::to_string(requests_);
    const std::string request = analyze_request(trace_id, qs);
    tracer_.next_trace();
    const double t0 = now_s();
    std::string response;
    {
      Tracer::Scope span(tracer_, "net.round_trip");
      response = endpoint_->call(request);
    }
    round_trip_s_ += now_s() - t0;
    ++requests_;

    const std::string head = io::json::Object{}
                                 .add_string("type", "result")
                                 .add_string("trace_id", trace_id)
                                 .str();
    if (response.compare(0, head.size() - 1, head, 0, head.size() - 1) != 0) {
      ++bad_trace_ids_;
    }
    const std::string hits = "\"cache_hits\":" + std::to_string(expected_hits) + ",";
    if (response.find(hits) == std::string::npos) ++bad_cache_hits_;
    const auto items = result_items(response);
    bool mismatch = items.size() != qs.size();
    for (std::size_t k = 0; k < batch.size() && k < items.size(); ++k) {
      const Query& q = pool_[batch[k]];
      if (items[k] == q.expected) continue;
      if (q.amc) {
        // The known fault: the amc_rtb slice gets EDF-VD's answer.
        if (failed != nullptr) ++*failed;
      } else {
        mismatch = true;
      }
    }
    if (mismatch) ++mismatched_responses_;
    for (std::size_t i : batch) seen_[i] = true;
    return response;
  }

  const Args& args_;
  std::vector<Query> pool_;
  std::vector<bool> seen_;
  std::unique_ptr<Endpoint> endpoint_;
  Tracer tracer_;
  std::uint64_t fresh_count_ = 0;
  std::vector<std::pair<std::uint64_t, std::string>> fresh_answers_;
  std::uint64_t mismatched_responses_ = 0, bad_trace_ids_ = 0, bad_cache_hits_ = 0;
  std::uint64_t requests_ = 0, requests0_ = 0, traced_requests_ = 0;
  double round_trip_s_ = 0.0, round_trip_s0_ = 0.0, traced_round_trip_s_ = 0.0;
  std::uint64_t hits0_ = 0, queries0_ = 0, bytes0_ = 0;
  double hit_ratio_ = 0.0, bytes_ = 0.0;
};

}  // namespace

Report run_serve_warm(const Args& args) {
  Report report;
  ServeWarm w(args);
  const Measured m = measure(
      args, kSetupReps, [&] { w.setup(); },
      [&](std::uint64_t i, RoundOutput& out) { w.round(i, out); },
      [&](bool on) { w.set_tracing(on); }, [&] { w.teardown(); });
  count_operations(report, m);
  if (args.trace) {
    w.layer_metrics(report, m);
    w.tracer().write_chrome_trace(trace_path(args));
  } else {
    end_to_end_metrics(report, m, kTailPct);
  }
  w.check(report);
  return report;
}

}  // namespace perfbench
