// haste_e2e — the measuring half of the end-to-end benchmark (run.py plans
// the operation list, checks outputs against the pins and turns the raw
// samples written here into metrics).
//
// Usage: haste_e2e --plan PLAN.json --out RESULT.json [--trace-out TRACE.json]
//                  [--commit SHA] [--seed N]
//
// The plan names the workload and its fixed operation list as input keys
// ("paper50/17" = instance 17 of the 50-charger/200-task paper pool). Inputs
// are generated here from their keys, outside every timed region. Each run:
//   1. set-up, repeated `setup_reps` times (JSON parse + Network build of
//      every input; serve also starts the server and connects its clients);
//   2. an untimed warm-up over the plan's warm-up keys;
//   3. the timed phase over the operation list — never cut short by a clock;
//   4. with --trace-out, the same list again with bench-side spans on, then
//      the diagnostics (isolated Network build, dominant sets, the pricing
//      floor of every online re-plan, serve lines handled without a socket).
//
// Spans are recorded by this file around calls into the libraries, kept in
// memory and written as Chrome trace JSON; the libraries' own tracer stays
// off so their internal spans neither cost time nor nest inside ours.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dominant_sets.hpp"
#include "core/evaluate.hpp"
#include "core/objective.hpp"
#include "core/offline.hpp"
#include "dist/online.hpp"
#include "io/scenario_io.hpp"
#include "model/network.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sim/scenario.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace {

using namespace haste;
using util::Json;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Bench-side spans

constexpr int kMainTid = 1;
constexpr int kConnectionTidBase = 100;  ///< serve: one track per client slot

class Recorder {
 public:
  struct Event {
    const char* name;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    int tid;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void record(const char* name, std::int64_t begin_ns, std::int64_t end_ns, int tid) {
    events_.push_back(Event{name, begin_ns, end_ns, tid});
  }

  /// Chrome trace JSON. Timestamps are floored to whole microseconds from the
  /// first event, which keeps nested spans nested (flooring is monotone).
  Json chrome_trace() const {
    std::int64_t origin = 0;
    if (!events_.empty()) {
      origin = events_.front().begin_ns;
      for (const Event& e : events_) origin = std::min(origin, e.begin_ns);
    }
    Json list = Json::array();
    Json meta = Json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("ts", 0);
    meta.set("pid", 1);
    meta.set("tid", kMainTid);
    Json meta_args = Json::object();
    meta_args.set("name", "haste_e2e");
    meta.set("args", std::move(meta_args));
    list.push_back(std::move(meta));
    for (const Event& e : events_) {
      const std::int64_t begin_us = (e.begin_ns - origin) / 1000;
      const std::int64_t end_us = (e.end_ns - origin) / 1000;
      Json event = Json::object();
      event.set("name", e.name);
      event.set("cat", "e2e");
      event.set("ph", "X");
      event.set("ts", begin_us);
      event.set("dur", end_us - begin_us);
      event.set("pid", 1);
      event.set("tid", e.tid);
      list.push_back(std::move(event));
    }
    Json root = Json::object();
    root.set("traceEvents", std::move(list));
    return root;
  }

 private:
  bool enabled_ = false;
  std::vector<Event> events_;
};

Recorder g_trace;

/// Times one call into a library when tracing is on; free otherwise.
class Span {
 public:
  explicit Span(const char* name, int tid = kMainTid)
      : name_(name), tid_(tid), begin_(g_trace.enabled() ? now_ns() : -1) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (begin_ >= 0) g_trace.record(name_, begin_, now_ns(), tid_);
  }

 private:
  const char* name_;
  int tid_;
  std::int64_t begin_;
};

// ---------------------------------------------------------------------------
// Inputs

/// One serve request line, its op ("open", "arrive", "fail", "finish") and
/// the span its round trip is traced under.
struct Request {
  const char* kind;
  const char* rtt_span;
  std::string line;
};

/// One pre-generated input: the network JSON a user would hand the program,
/// plus what the harness needs to drive and check it.
struct Input {
  std::string key;
  std::string json;
  double utility_upper = 0.0;
  std::vector<serve::ReplayEvent> events;  ///< online/serve event stream
  dist::OnlineConfig config;               ///< online/serve session config
  std::vector<Request> requests;           ///< serve request lines, in order
};

// Pool bases: instance i of a pool is generated from stream_seed(base, i),
// so a key names the same instance on every machine and in every run.
constexpr std::uint64_t kPaper50Base = 0x50A11CE5ull;
constexpr std::uint64_t kPaper20Base = 0x20A11CE5ull;
constexpr std::uint64_t kBursty8Base = 0x8B0057ull;
constexpr std::uint64_t kFailureBase = 0xFA11ull;

Input make_input(const std::string& key) {
  const auto slash = key.find('/');
  if (slash == std::string::npos) throw std::invalid_argument("bad input key: " + key);
  const std::string pool = key.substr(0, slash);
  const auto index = static_cast<std::uint64_t>(std::stoull(key.substr(slash + 1)));

  sim::ScenarioConfig scenario = sim::ScenarioConfig::paper_default();
  std::uint64_t base = kPaper50Base;
  bool with_failure = false;
  bool predictor = false;
  if (pool == "paper50") {
    // The paper's simulation scale: 50 chargers, 200 tasks.
  } else if (pool == "paper20") {
    scenario.chargers = 20;
    scenario.tasks = 80;
    base = kPaper20Base;
    with_failure = true;
  } else if (pool == "bursty8") {
    // The predictor's calibrated bursty-hotspot regime.
    scenario.chargers = 8;
    scenario.tasks = 30;
    scenario.release_window_slots = 24;
    scenario.burst_factor = 4.0;
    scenario.hotspot_fraction = 0.6;
    base = kBursty8Base;
    predictor = true;
  } else {
    throw std::invalid_argument("unknown input pool: " + pool);
  }

  util::Rng rng(util::Rng::stream_seed(base, index));
  const model::Network net = sim::generate_scenario(scenario, rng);

  Input input;
  input.key = key;
  input.json = io::network_to_json(net).dump();
  input.utility_upper = net.utility_upper_bound();
  if (predictor) {
    input.config.predictor.enabled = true;
    input.config.predictor.max_level = 2;
  }
  std::vector<dist::ChargerFailure> failures;
  if (with_failure) {
    util::Rng failure_rng(util::Rng::stream_seed(kFailureBase, index));
    dist::ChargerFailure failure;
    failure.charger = static_cast<model::ChargerIndex>(
        failure_rng.uniform_index(static_cast<std::uint64_t>(net.charger_count())));
    failure.slot = static_cast<model::SlotIndex>(10 + failure_rng.uniform_index(41));
    failures.push_back(failure);
  }
  input.events = serve::build_replay_events(net, failures);

  Json open = Json::object();
  open.set("op", "open");
  open.set("scenario", io::network_to_json(net));
  open.set("config", serve::online_config_to_json(input.config));
  input.requests.push_back(Request{"open", "serve.rtt.open", open.dump()});
  for (const serve::ReplayEvent& event : input.events) {
    Json request = Json::object();
    const char* kind = event.is_failure ? "fail" : "arrive";
    const char* rtt_span = event.is_failure ? "serve.rtt.fail" : "serve.rtt.arrive";
    request.set("op", kind);
    if (event.is_failure) {
      request.set("charger", static_cast<int>(event.charger));
    } else {
      Json tasks = Json::array();
      for (model::TaskIndex j : event.tasks) tasks.push_back(static_cast<int>(j));
      request.set("tasks", std::move(tasks));
    }
    request.set("slot", static_cast<int>(event.slot));
    input.requests.push_back(Request{kind, rtt_span, request.dump()});
  }
  Json finish = Json::object();
  finish.set("op", "finish");
  input.requests.push_back(Request{"finish", "serve.rtt.finish", finish.dump()});
  return input;
}

/// FNV-1a over a schedule's exact contents (orientation bits, unassigned
/// slots, disabled slots): equal digests mean bit-identical schedules.
std::string schedule_digest(const model::Schedule& schedule) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      h ^= (value >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint64_t>(schedule.charger_count()));
  mix(static_cast<std::uint64_t>(schedule.horizon()));
  for (model::ChargerIndex i = 0; i < schedule.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < schedule.horizon(); ++k) {
      const model::SlotAssignment a = schedule.assignment(i, k);
      std::uint64_t bits = 0;
      if (a) std::memcpy(&bits, &*a, sizeof(bits));
      mix(a ? 1u : 0u);
      mix(bits);
      mix(schedule.disabled_at(i, k) ? 1u : 0u);
    }
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(h));
  return text;
}

Json u64(std::uint64_t value) { return Json(std::to_string(value)); }

// ---------------------------------------------------------------------------
// Run state

struct Plan {
  std::string workload;
  std::vector<std::string> ops;
  std::vector<std::string> warmup;
  int setup_reps = 0;
  int concurrency = 0;
  int server_threads = 0;
};

Plan load_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read plan " + path);
  std::stringstream text;
  text << in.rdbuf();
  const Json json = Json::parse(text.str());
  Plan plan;
  plan.workload = json.at("workload").as_string();
  for (std::size_t i = 0; i < json.at("ops").size(); ++i) {
    plan.ops.push_back(json.at("ops").at(i).as_string());
  }
  for (std::size_t i = 0; i < json.at("warmup").size(); ++i) {
    plan.warmup.push_back(json.at("warmup").at(i).as_string());
  }
  plan.setup_reps = static_cast<int>(json.at("setup_reps").as_int());
  plan.concurrency = static_cast<int>(json.at("concurrency").as_int());
  plan.server_threads = static_cast<int>(json.at("server_threads").as_int());
  if (plan.ops.empty() || plan.setup_reps < 1 || plan.concurrency < 1 ||
      plan.server_threads < 1) {
    throw std::invalid_argument("plan needs ops, setup_reps, concurrency, threads >= 1");
  }
  return plan;
}

/// What one timed phase produced.
struct Phase {
  std::int64_t wall_ns = 0;
  Json ops = Json::array();      ///< latency samples: {"ns", "kind", "unit"}
  Json outputs = Json::array();  ///< per output unit: key, digest, pins
  std::uint64_t attempted = 0;   ///< latency ops the list asked for
};

Json op_sample(std::int64_t ns, const std::string& kind, std::size_t unit) {
  Json op = Json::object();
  op.set("ns", static_cast<std::int64_t>(ns));
  op.set("kind", kind);
  op.set("unit", static_cast<std::int64_t>(unit));
  return op;
}

model::Network parse_input(const Input& input) {
  Span span("io.parse");
  return io::network_from_json(Json::parse(input.json));
}

/// Per-layer counts accumulated by the traced phase.
using LayerCounts = std::map<std::string, double>;

/// Computed in-memory size of a partition's vectors (sizes, not capacities).
double partition_bytes(const core::PolicyPartition& p) {
  double bytes = 0.0;
  for (const core::Policy& policy : p.policies) {
    bytes += static_cast<double>(policy.tasks.size() * sizeof(model::TaskIndex) +
                                 policy.slot_energy.size() * sizeof(double));
  }
  bytes += static_cast<double>(p.row_offsets.size() * sizeof(std::int32_t) +
                               p.flat_tasks.size() * sizeof(model::TaskIndex) +
                               p.flat_energy.size() * sizeof(double) +
                               p.flat_weight.size() * sizeof(double) +
                               p.flat_required.size() * sizeof(double) +
                               p.flat_col.size() * sizeof(std::int32_t) +
                               p.col_task.size() * sizeof(model::TaskIndex) +
                               p.col_delta.size() * sizeof(double) +
                               p.col_weight.size() * sizeof(double) +
                               p.col_required.size() * sizeof(double));
  return bytes;
}

// ---------------------------------------------------------------------------
// offline_paper: parse, core::schedule_offline (C=4, S=16), evaluate.

Phase run_offline(const std::vector<const Input*>& ops, LayerCounts* counts) {
  Phase phase;
  const core::OfflineConfig config;
  phase.attempted = ops.size();
  const std::int64_t start = now_ns();
  for (std::size_t u = 0; u < ops.size(); ++u) {
    const Input& input = *ops[u];
    const std::int64_t t0 = now_ns();
    std::vector<core::PolicyPartition> partitions;
    core::OfflineResult result;
    core::EvaluationResult evaluation;
    bool ok = true;
    try {
      Span op("op.offline");
      const model::Network net = parse_input(input);
      if (counts != nullptr) {
        // schedule_offline is exactly these two calls; split so each layer
        // gets its own span.
        {
          Span span("core.build_partitions");
          partitions = core::build_partitions(net);
        }
        Span span("core.schedule_offline_over");
        result = core::schedule_offline_over(net, partitions, config, {});
      } else {
        result = core::schedule_offline(net, config);
      }
      Span span("core.evaluate");
      evaluation = core::evaluate_schedule(net, result.schedule);
    } catch (const std::exception& error) {
      std::cerr << "haste_e2e: offline op " << input.key << " failed: " << error.what()
                << "\n";
      ok = false;
    }
    const std::int64_t t1 = now_ns();
    phase.ops.push_back(op_sample(t1 - t0, "solve", u));
    Json out = Json::object();
    out.set("key", input.key);
    out.set("ok", ok);
    if (ok) {
      out.set("digest", schedule_digest(result.schedule));
      out.set("utility_norm", evaluation.weighted_utility / input.utility_upper);
    }
    phase.outputs.push_back(std::move(out));
    if (counts != nullptr && ok) {
      (*counts)["core.partitions"] += static_cast<double>(partitions.size());
      for (const core::PolicyPartition& p : partitions) {
        (*counts)["core.policies"] += static_cast<double>(p.policies.size());
        (*counts)["core.rows"] += static_cast<double>(p.flat_tasks.size());
        (*counts)["core.partition_bytes"] += partition_bytes(p);
      }
      (*counts)["core.row_evals"] += static_cast<double>(result.row_evaluations);
      (*counts)["core.marginal_evals"] += static_cast<double>(result.marginal_evaluations);
    }
  }
  phase.wall_ns = now_ns() - start;
  return phase;
}

// ---------------------------------------------------------------------------
// online_paper: whole instances replayed through dist::OnlineSession.

struct ReplanRecord {
  const Input* input = nullptr;
  model::SlotIndex plan_start = 0;
  std::vector<model::TaskIndex> known;
};

Phase run_online(const std::vector<const Input*>& ops, LayerCounts* counts,
                 std::vector<ReplanRecord>* replans) {
  Phase phase;
  for (const Input* input : ops) phase.attempted += input->events.size();
  const std::int64_t start = now_ns();
  for (std::size_t u = 0; u < ops.size(); ++u) {
    const Input& input = *ops[u];
    bool ok = true;
    dist::OnlineResult result;
    std::vector<model::TaskIndex> known;
    try {
      Span op("op.online");
      const model::Network net = parse_input(input);
      dist::OnlineSession session(net, input.config);
      for (const serve::ReplayEvent& event : input.events) {
        const std::int64_t t0 = now_ns();
        const dist::NegotiationRecord* record = nullptr;
        {
          Span span("dist.replan");
          record = event.is_failure ? session.on_failure(event.charger, event.slot)
                                    : session.on_arrival(event.slot, event.tasks);
        }
        phase.ops.push_back(op_sample(now_ns() - t0, "replan", u));
        if (!event.is_failure) known.insert(known.end(), event.tasks.begin(), event.tasks.end());
        if (replans != nullptr && record != nullptr) {
          replans->push_back(ReplanRecord{&input, record->plan_start, known});
        }
      }
      Span span("dist.finish");
      result = session.finish();
    } catch (const std::exception& error) {
      std::cerr << "haste_e2e: online op " << input.key << " failed: " << error.what()
                << "\n";
      ok = false;
    }
    Json out = Json::object();
    out.set("key", input.key);
    out.set("ok", ok);
    if (ok) {
      out.set("digest", schedule_digest(result.schedule));
      out.set("utility_norm", result.evaluation.weighted_utility / input.utility_upper);
      out.set("messages", u64(result.messages));
      out.set("deliveries", u64(result.deliveries));
      out.set("message_bytes", u64(result.message_bytes));
      out.set("rounds", u64(result.rounds));
      out.set("negotiations", u64(result.negotiations));
      if (counts != nullptr) {
        (*counts)["dist.messages"] += static_cast<double>(result.messages);
        (*counts)["dist.deliveries"] += static_cast<double>(result.deliveries);
        (*counts)["dist.message_bytes"] += static_cast<double>(result.message_bytes);
        (*counts)["dist.rounds"] += static_cast<double>(result.rounds);
        (*counts)["dist.negotiations"] += static_cast<double>(result.negotiations);
        (*counts)["dist.row_evals"] += static_cast<double>(result.row_evaluations);
      }
    }
    phase.outputs.push_back(std::move(out));
  }
  phase.wall_ns = now_ns() - start;
  return phase;
}

/// The ROADMAP's re-plan cost floor: what pricing the same known tasks from
/// the same plan start costs the centralized scheduler.
void run_pricing_floor(const std::vector<ReplanRecord>& replans) {
  const core::OfflineConfig config;
  const Input* parsed_for = nullptr;
  std::unique_ptr<model::Network> net;
  for (const ReplanRecord& replan : replans) {
    if (replan.input != parsed_for) {
      net = std::make_unique<model::Network>(
          io::network_from_json(Json::parse(replan.input->json)));
      parsed_for = replan.input;
    }
    Span span("dist.pricing_floor");
    const std::vector<core::PolicyPartition> partitions =
        core::build_partitions(*net, replan.plan_start, replan.known);
    core::schedule_offline_over(*net, partitions, config, {});
  }
}

// ---------------------------------------------------------------------------
// serve_mixed: an in-process serve::Server driven as a closed loop by one
// thread multiplexing `concurrency` client connections.

struct ServeRig {
  std::unique_ptr<serve::Server> server;
  std::thread thread;
  std::vector<util::TcpSocket> clients;  ///< one pre-connected per session

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() { stop(); }

  /// Drains and joins the server. Never inside a timed region.
  void stop() {
    clients.clear();
    if (server) server->request_drain();
    if (thread.joinable()) thread.join();
    server.reset();
  }
};

void start_rig(ServeRig& rig, const Plan& plan, std::size_t sessions) {
  serve::ServerOptions options;
  options.threads = static_cast<std::size_t>(plan.server_threads);
  options.max_sessions = std::max<std::size_t>(sessions + 8, 16);
  rig.server = std::make_unique<serve::Server>(options);
  serve::Server* server = rig.server.get();
  rig.thread = std::thread([server] { server->run(); });
  const std::string address = server->address();
  for (std::size_t s = 0; s < sessions; ++s) {
    rig.clients.push_back(util::TcpSocket::connect(address));
  }
}

struct ServeTotals {
  std::uint64_t request_bytes = 0;
  std::uint64_t reply_bytes = 0;
  std::uint64_t rejects = 0;
  std::uint64_t errors = 0;
};

Phase run_serve(const std::vector<const Input*>& ops, const Plan& plan, ServeRig& rig,
                ServeTotals* totals) {
  Phase phase;
  struct Slot {
    std::size_t session = 0;
    std::size_t next = 0;  ///< index of the request awaiting its reply
    std::int64_t sent_ns = 0;
    util::LineBuffer buffer;
    bool active = false;
  };
  const std::size_t concurrency = std::min<std::size_t>(
      static_cast<std::size_t>(plan.concurrency), ops.size());
  std::vector<Slot> slots(concurrency);
  std::vector<Json> results(ops.size());
  std::vector<bool> session_failed(ops.size(), false);
  std::size_t next_session = 0;
  for (const Input* input : ops) phase.attempted += input->requests.size();

  auto send = [&](Slot& slot) {
    const std::string& line = ops[slot.session]->requests[slot.next].line;
    util::TcpSocket& socket = rig.clients[slot.session];
    Span span("util.send_line");
    slot.sent_ns = now_ns();
    bool alive = socket.send_line(line);
    while (alive && socket.pending_bytes() > 0) alive = socket.flush(1000);
    if (totals != nullptr) totals->request_bytes += line.size() + 1;
    return alive;
  };
  auto start_next = [&](Slot& slot) {
    slot.active = false;
    while (next_session < ops.size()) {
      slot.session = next_session++;
      slot.next = 0;
      slot.buffer = util::LineBuffer();
      slot.active = true;
      if (send(slot)) return;
      session_failed[slot.session] = true;
      slot.active = false;
    }
  };

  const std::int64_t start = now_ns();
  {
    Span root("op.serve");
    for (Slot& slot : slots) start_next(slot);
    std::vector<char> chunk(1 << 16);
    for (;;) {
      std::vector<int> fds;
      std::vector<std::size_t> slot_of;
      for (std::size_t c = 0; c < slots.size(); ++c) {
        if (!slots[c].active) continue;
        fds.push_back(rig.clients[slots[c].session].fd());
        slot_of.push_back(c);
      }
      if (fds.empty()) break;
      std::vector<std::size_t> ready;
      {
        Span span("util.poll_readable");
        ready = util::poll_readable(fds, 60'000);
      }
      if (ready.empty()) {
        std::cerr << "haste_e2e: serve replies stalled for 60 s\n";
        for (std::size_t c : slot_of) session_failed[slots[c].session] = true;
        break;
      }
      for (std::size_t r : ready) {
        Slot& slot = slots[slot_of[r]];
        std::vector<std::string> lines;
        ssize_t n = 0;
        {
          Span span("util.line_feed");
          n = ::read(rig.clients[slot.session].fd(), chunk.data(), chunk.size());
          if (n > 0) lines = slot.buffer.feed(chunk.data(), static_cast<std::size_t>(n));
        }
        if (n <= 0) {
          if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          // The server closes after the result; any earlier EOF is a failure.
          session_failed[slot.session] = true;
          if (totals != nullptr) ++totals->errors;
          rig.clients[slot.session].close();
          start_next(slot);
          continue;
        }
        for (const std::string& line : lines) {
          const std::int64_t received = now_ns();
          const Request& request = ops[slot.session]->requests[slot.next];
          if (g_trace.enabled()) {
            g_trace.record(request.rtt_span, slot.sent_ns, received,
                           kConnectionTidBase + static_cast<int>(&slot - slots.data()));
          }
          Json sample = op_sample(received - slot.sent_ns, request.kind, slot.session);
          sample.set("request", static_cast<std::int64_t>(slot.next));
          phase.ops.push_back(std::move(sample));
          if (totals != nullptr) totals->reply_bytes += line.size() + 1;
          Json reply;
          {
            Span span("util.json_parse");
            reply = Json::parse(line);
          }
          const std::string op = reply.string_or("op", "");
          const bool ok = reply.bool_or("ok", false);
          if (!ok && totals != nullptr) ++(op == "reject" ? totals->rejects : totals->errors);
          // A refused or failed request ends its session: the rest of its
          // requests stay unanswered and count as misses.
          const bool last = slot.next + 1 >= ops[slot.session]->requests.size();
          if (!ok || op == "result" || last) {
            if (ok && op == "result") {
              results[slot.session] = std::move(reply);
            } else {
              session_failed[slot.session] = true;
            }
            rig.clients[slot.session].close();
            start_next(slot);
            break;
          }
          ++slot.next;
          if (!send(slot)) {
            session_failed[slot.session] = true;
            if (totals != nullptr) ++totals->errors;
            start_next(slot);
            break;
          }
        }
      }
    }
  }
  phase.wall_ns = now_ns() - start;

  for (std::size_t s = 0; s < ops.size(); ++s) {
    const Input& input = *ops[s];
    Json out = Json::object();
    out.set("key", input.key);
    const Json& result = results[s];
    bool ok = !session_failed[s] && result.is_object() &&
              result.string_or("op", "") == "result";
    if (ok) {
      try {
        const model::Schedule schedule = io::schedule_from_json(result.at("schedule"));
        out.set("digest", schedule_digest(schedule));
        out.set("utility_norm",
                result.at("weighted_utility").as_number() / input.utility_upper);
        for (const char* name :
             {"messages", "deliveries", "message_bytes", "rounds", "negotiations"}) {
          out.set(name, result.at(name));  // u64 decimal strings, as pinned
        }
      } catch (const std::exception& error) {
        std::cerr << "haste_e2e: bad result for " << input.key << ": " << error.what() << "\n";
        ok = false;
      }
    }
    out.set("ok", ok);
    phase.outputs.push_back(std::move(out));
  }
  return phase;
}

/// The same request lines handled in-process with no socket: the server's
/// compute share of each round trip.
Json run_handle_lines(const std::vector<const Input*>& ops) {
  Json handle = Json::array();
  for (std::size_t s = 0; s < ops.size(); ++s) {
    serve::Session session;
    for (std::size_t r = 0; r < ops[s]->requests.size(); ++r) {
      const Request& request = ops[s]->requests[r];
      const std::int64_t t0 = now_ns();
      {
        Span span("serve.handle_line");
        session.handle_line(request.line);
      }
      Json sample = op_sample(now_ns() - t0, request.kind, s);
      sample.set("request", static_cast<std::int64_t>(r));
      handle.push_back(std::move(sample));
    }
  }
  return handle;
}

// ---------------------------------------------------------------------------
// Set-up, diagnostics, context

/// Parse + Network build of every distinct input: the set-up a user pays to
/// load the workload.
void load_inputs(const std::vector<const Input*>& distinct) {
  for (const Input* input : distinct) {
    const model::Network net = io::network_from_json(Json::parse(input->json));
    if (net.task_count() == 0) throw std::runtime_error("empty input " + input->key);
  }
}

/// Parses each input once more (the only io.parse spans on serve, where the
/// server parses inside `open`), then re-runs the Network constructor on
/// the parsed parts and the dominant-set extraction build_partitions starts
/// from.
void run_model_diagnostics(const std::vector<const Input*>& distinct, bool dominant) {
  for (const Input* input : distinct) {
    const model::Network parsed = parse_input(*input);
    std::vector<model::Charger> chargers = parsed.chargers();
    std::vector<model::Task> tasks = parsed.tasks();
    {
      Span span("model.network_build");
      const model::Network rebuilt(std::move(chargers), std::move(tasks),
                                   parsed.power_model(), parsed.time(),
                                   model::make_utility_shape(parsed.utility_shape().name()),
                                   parsed.deadline_policy());
    }
    if (!dominant) continue;
    Span span("core.dominant_sets");
    for (model::ChargerIndex i = 0; i < parsed.charger_count(); ++i) {
      core::extract_dominant_sets(parsed, i);
    }
  }
}

Json registry_window(const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot window = obs::MetricsRegistry::instance().snapshot().delta(before);
  Json out = Json::object();
  for (const char* name : {"predict.hits", "predict.misses", "online.replans_skipped",
                           "pool.tasks"}) {
    const auto it = window.counters.find(name);
    out.set(name, static_cast<double>(it == window.counters.end() ? 0 : it->second));
  }
  const auto latency = window.histograms.find("online.replan.latency_us");
  out.set("serve.replan_us_mean",
          latency != window.histograms.end() && latency->second.stats.count() > 0
              ? latency->second.stats.mean()
              : 0.0);
  return out;
}

Json context(const std::string& commit, const std::string& seed) {
  Json ctx = Json::object();
  ctx.set("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  ctx.set("compiler", HASTE_E2E_COMPILER);
  ctx.set("build_type", HASTE_E2E_BUILD_TYPE);
  const char* threads = std::getenv("HASTE_THREADS");
  ctx.set("HASTE_THREADS", threads != nullptr ? threads : "");
#ifdef HASTE_OBS
  ctx.set("HASTE_OBS", "on");
#else
  ctx.set("HASTE_OBS", "off");
#endif
  ctx.set("commit", commit);
  ctx.set("seed", seed);
  return ctx;
}

Json phase_json(const Phase& phase) {
  Json out = Json::object();
  out.set("wall_ns", static_cast<std::int64_t>(phase.wall_ns));
  out.set("ops", phase.ops);
  out.set("outputs", phase.outputs);
  out.set("attempted", static_cast<std::int64_t>(phase.attempted));
  return out;
}

int run(const util::Flags& flags) {
  if (std::string(HASTE_E2E_BUILD_TYPE) != "Release") {
    std::cerr << "haste_e2e: refusing to time a " << HASTE_E2E_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
#ifndef NDEBUG
  std::cerr << "haste_e2e: refusing to time a build with assertions enabled\n";
  return 3;
#endif
  const Plan plan = load_plan(flags.get("plan", ""));
  const std::string out_path = flags.get("out", "");
  const std::string trace_path = flags.get("trace-out", "");
  if (out_path.empty()) throw std::invalid_argument("--out is required");

  // Generation: the harness's own job, never timed.
  std::map<std::string, Input> inputs;
  for (const auto* keys : {&plan.ops, &plan.warmup}) {
    for (const std::string& key : *keys) {
      if (!inputs.count(key)) inputs.emplace(key, make_input(key));
    }
  }
  std::vector<const Input*> ops;
  std::vector<const Input*> distinct;
  std::set<std::string> seen;
  for (const std::string& key : plan.ops) {
    ops.push_back(&inputs.at(key));
    if (seen.insert(key).second) distinct.push_back(&inputs.at(key));
  }
  std::vector<const Input*> warmup;
  for (const std::string& key : plan.warmup) warmup.push_back(&inputs.at(key));

  const bool serve_workload = plan.workload == "serve_mixed";
  if (plan.workload != "offline_paper" && plan.workload != "online_paper" &&
      !serve_workload) {
    throw std::invalid_argument("unknown workload " + plan.workload);
  }

  // 1. Set-up, repeated; serve keeps the last rig for the timed phase.
  Json setup = Json::array();
  ServeRig rig;
  auto run_phase = [&](LayerCounts* counts, ServeTotals* totals,
                       std::vector<ReplanRecord>* replans) {
    if (serve_workload) return run_serve(ops, plan, rig, totals);
    if (plan.workload == "offline_paper") return run_offline(ops, counts);
    return run_online(ops, counts, replans);
  };
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    rig.stop();
    const std::int64_t t0 = now_ns();
    load_inputs(distinct);
    if (serve_workload) start_rig(rig, plan, ops.size());
    setup.push_back(static_cast<std::int64_t>(now_ns() - t0));
  }

  // 2. Warm-up: untimed, same code path.
  if (!warmup.empty()) {
    if (serve_workload) {
      for (const Input* input : warmup) {
        const model::Network net = io::network_from_json(Json::parse(input->json));
        serve::replay_online(rig.server->address(), "", net, input->config, input->events);
      }
    } else if (plan.workload == "offline_paper") {
      run_offline(warmup, nullptr);
    } else {
      run_online(warmup, nullptr, nullptr);
    }
  }

  // 3. The timed phase, tracing off.
  const Phase timed = run_phase(nullptr, nullptr, nullptr);

  Json result = Json::object();
  result.set("context", context(flags.get("commit", "unknown"), flags.get("seed", "")));
  result.set("setup_ns", setup);
  result.set("timed", phase_json(timed));

  // 4. The traced pass over the same list, then the diagnostics.
  if (!trace_path.empty()) {
    LayerCounts counts;
    ServeTotals totals;
    std::vector<ReplanRecord> replans;
    if (serve_workload) {
      rig.stop();
      start_rig(rig, plan, ops.size());
    }
    const obs::MetricsSnapshot traced_before = obs::MetricsRegistry::instance().snapshot();
    g_trace.set_enabled(true);
    const Phase traced = run_phase(&counts, &totals, &replans);
    Json registry = registry_window(traced_before);
    rig.stop();
    {
      Span diag("diag.layers");
      run_model_diagnostics(distinct, plan.workload == "offline_paper");
      if (!replans.empty()) run_pricing_floor(replans);
    }
    Json handle = Json::array();
    if (serve_workload) {
      Span diag("diag.serve_handle");
      handle = run_handle_lines(ops);
    }
    g_trace.set_enabled(false);

    Json layer = Json::object();
    for (const auto& [name, value] : counts) layer.set(name, value);
    for (const auto& [name, value] : registry.items()) layer.set(name, value);
    if (serve_workload) {
      layer.set("serve.request_bytes", static_cast<double>(totals.request_bytes));
      layer.set("serve.reply_bytes", static_cast<double>(totals.reply_bytes));
      layer.set("serve.rejects", static_cast<double>(totals.rejects));
      layer.set("serve.errors", static_cast<double>(totals.errors));
    }
    result.set("traced", phase_json(traced));
    result.set("handle", handle);
    result.set("layer_counts", layer);

    std::ofstream trace_out(trace_path);
    trace_out << g_trace.chrome_trace().dump() << "\n";
    if (!trace_out) throw std::runtime_error("cannot write " + trace_path);
  }
  rig.stop();

  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  result.set("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss));

  std::ofstream out(out_path);
  out << result.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write " + out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Flags::parse(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "haste_e2e: " << error.what() << "\n";
    return 1;
  }
}
