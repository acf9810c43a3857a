// serve-fleet: one in-process ServeSession behind serve_unix_socket with a
// pool of two workers, driven by two closed-loop client threads. Each client
// opens one connection per request because the listener serves one
// connection at a time, so a request also waits for the other client's
// request in flight.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/facts.h"
#include "apps/registry.h"
#include "fuzz/program_gen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace statsym;

// Programs come from the default generator mix. The request mix is fixed by
// position, so every seed sends the same shares: every fourth request of a
// client names a fault-free program, never seen before (fault-free programs
// stop before Phase 3, so they have no solver work to reuse); the others
// name a fault-planted program drawn Zipf-skewed from a seeded pool, so
// repeats read warm caches and first sightings fill them. The pool is large
// and the skew mild so that no single program's cost decides a run.
constexpr std::size_t kPlanted = 200;
constexpr double kZipfExponent = 0.5;
constexpr std::size_t kClients = 2;
constexpr std::size_t kServerJobs = 2;
constexpr std::size_t kCheck = 64;  // fixed prefix, both clients together
constexpr std::uint64_t kRequestIdStride = 1'000'000;

constexpr std::uint64_t kClientStream = 0x636c69656e74ull;
constexpr std::uint64_t kFaultFreeStream = 0x6672656500ull;

struct Program {
  std::string name;       // "fuzz:<seed>"
  std::uint64_t seed{0};  // request seed, fixed per program
  bool planted{false};
  std::string vuln_function;
  std::string vuln_kind;
};

// Zipf over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double acc = 0.0;
    for (std::size_t r = 1; r <= n; ++r) {
      acc += std::pow(static_cast<double>(r), -s);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }

  std::size_t draw(Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::string format_request(const std::string& id,
                           const std::vector<std::string>& body) {
  std::string s = "statsym-serve|" +
                  std::to_string(serve::kServeProtocolVersion) + "|" + id +
                  "|" + std::to_string(body.size()) + "\n";
  for (const std::string& line : body) s += line + "\n";
  return s + "endreq\n";
}

// Connected AF_UNIX stream socket, or -1.
int connect_socket(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one frame, half-closes so the server sees the end of the request
// stream, and reads the reply until the server closes. Always closes fd.
bool exchange(int fd, const std::string& frame, std::string& reply) {
  bool ok = true;
  for (std::size_t sent = 0; ok && sent < frame.size();) {
    const ssize_t n =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ok = false;
    } else {
      sent += static_cast<std::size_t>(n);
    }
  }
  ok = ok && ::shutdown(fd, SHUT_WR) == 0;
  char buf[4096];
  while (ok) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      ok = false;
    } else if (n == 0) {
      break;
    } else {
      reply.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return ok;
}

// The reply without its wall-clock gauge lines: the only bytes allowed to
// differ between repeated requests for one program (DESIGN.md §14).
std::string mask_seconds(const std::string& reply) {
  std::istringstream in(reply);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find(".seconds\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

// Counters and gauges of a reply's metrics section, by name.
std::map<std::string, double> reply_metrics(
    const std::vector<std::string>& body) {
  std::map<std::string, double> out;
  bool inside = false;
  for (const std::string& line : body) {
    if (line == "beginmetrics") {
      inside = true;
      continue;
    }
    if (line == "endmetrics") break;
    if (!inside) continue;
    const std::size_t q1 = line.find('"');
    const std::size_t q2 =
        q1 == std::string::npos ? q1 : line.find('"', q1 + 1);
    const std::size_t colon =
        q2 == std::string::npos ? q2 : line.find(':', q2);
    if (colon == std::string::npos) continue;
    const char* v = line.c_str() + colon + 1;
    while (*v == ' ') ++v;
    if (*v == '{') continue;  // a section or histogram, not a number
    out[line.substr(q1 + 1, q2 - q1 - 1)] = std::strtod(v, nullptr);
  }
  return out;
}

// What the resolver learns about one request; its client reads it back.
struct Probe {
  std::string app;
  bool traced{false};
  std::atomic<std::uint64_t> attempts{0};  // counted WorkloadGen calls
  // Written by the resolver under ServeFleet::mu_.
  double resolve_ms{0.0};
  double built_ms{0.0};
  double analyze_end_ms{0.0};
};

// A generated program as a request target, with its ground truth.
Program program(std::uint64_t seed) {
  const fuzz::GeneratedProgram p = fuzz::generate_program(seed);
  return Program{"fuzz:" + std::to_string(seed), derive_seed(seed, 1) >> 1,
                 p.fault_planted, p.app.vuln_function,
                 interp::fault_kind_name(p.app.vuln_kind)};
}

struct ClientOut {
  std::vector<Item> items;
  Sums sums;
};

class ServeFleet final : public Workload {
 public:
  explicit ServeFleet(const std::string& work_dir)
      : socket_path_(work_dir + "/serve-" + std::to_string(::getpid()) +
                     ".sock") {}
  ~ServeFleet() override { teardown(); }
  ServeFleet(const ServeFleet&) = delete;
  ServeFleet& operator=(const ServeFleet&) = delete;

  void setup(std::uint64_t seed) override;
  void teardown() override;
  PassResult run(const PassOptions& o) override;
  std::size_t check_items() const override { return kCheck; }
  std::size_t throughput_block() const override { return 64; }

 private:
  Program pick(std::size_t client, std::size_t k, Rng& rng) const;
  apps::AppSpec resolve(const std::string& name);
  Item request(std::uint64_t id, const Program& prog, SpanRecorder* rec,
               Sums& sums);
  std::string judge(const Program& prog, const std::string& reply,
                    std::uint64_t attempts, bool traced, bool& detected,
                    Sums& sums);

  const std::string socket_path_;
  const Zipf zipf_{kPlanted, kZipfExponent};
  std::uint64_t seed_{0};
  std::vector<Program> planted_;
  std::unique_ptr<serve::ServeSession> session_;
  std::mutex mu_;  // guards probes_, probe timestamps and first_reply_
  std::deque<std::shared_ptr<Probe>> probes_;  // connected, not yet resolved
  std::map<std::string, std::string> first_reply_;  // program -> reply
  std::thread server_;
};

void ServeFleet::setup(std::uint64_t seed) {
  seed_ = seed;
  planted_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    probes_.clear();
    first_reply_.clear();
  }
  for (std::uint64_t j = 0; planted_.size() < kPlanted; ++j) {
    const Program p = program(derive_seed(seed, j));
    if (p.planted) planted_.push_back(p);
  }

  serve::ServeOptions so;
  so.session_seed = seed;
  so.jobs = 1;
  // Per-candidate budget, as in paper-guided: a runaway first candidate
  // must not hold the listener's only connection for the default 300 s.
  so.time_s = 10.0;
  session_ = std::make_unique<serve::ServeSession>(so);
  session_->set_resolver(
      [this](const std::string& name) { return resolve(name); });
  server_ = std::thread([this] {
    serve::serve_unix_socket(socket_path_, *session_, kServerJobs);
  });
  // The listener binds on its own thread; set-up ends when it answers.
  for (int attempt = 0;; ++attempt) {
    const int fd = connect_socket(socket_path_);
    if (fd >= 0) {
      std::string reply;
      if (exchange(fd, format_request("setup-ping", {"cmd|ping"}), reply) &&
          reply.find("pong|1") != std::string::npos) {
        return;
      }
      throw std::runtime_error("serve-fleet: bad ping reply");
    }
    if (attempt == 5000) {
      throw std::runtime_error("serve-fleet: no server on " + socket_path_);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ServeFleet::teardown() {
  if (!server_.joinable()) return;
  const int fd = connect_socket(socket_path_);
  if (fd >= 0) {
    std::string reply;
    exchange(fd, format_request("teardown", {"cmd|shutdown"}), reply);
  }
  server_.join();
  session_.reset();
}

Program ServeFleet::pick(std::size_t client, std::size_t k, Rng& rng) const {
  if (k % 4 != 3) return planted_[zipf_.draw(rng)];
  // The next fault-free program of this client's own seeded stream.
  const std::uint64_t stream =
      derive_seed(seed_, kFaultFreeStream + client * kRequestIdStride + k);
  for (std::uint64_t j = 0;; ++j) {
    Program p = program(derive_seed(stream, j));
    if (!p.planted) return p;
  }
}

// The AppResolver seam: the wait/service split, program construction, the
// traced pass's separate static analysis, and the counting WorkloadGen.
apps::AppSpec ServeFleet::resolve(const std::string& name) {
  const double start = clock_ms();
  std::shared_ptr<Probe> probe;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Clients register and connect under mu_, so probes_ is in the
    // listener's accept order: the order requests reach the resolver.
    if (probes_.empty() || probes_.front()->app != name) {
      throw std::runtime_error("request for '" + name +
                               "' is not the next registered request");
    }
    probe = probes_.front();
    probes_.pop_front();
  }
  apps::AppSpec app = apps::make_app(name);
  const double built = clock_ms();
  double analyzed = built;
  if (probe->traced) {
    const analysis::ProgramFacts facts = analysis::analyze(app.module);
    (void)facts;
    analyzed = clock_ms();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    probe->resolve_ms = start;
    probe->built_ms = built;
    probe->analyze_end_ms = analyzed;
  }
  app.workload = [probe, inner = std::move(app.workload)](Rng& rng) {
    probe->attempts.fetch_add(1, std::memory_order_relaxed);
    return inner(rng);
  };
  return app;
}

Item ServeFleet::request(std::uint64_t id, const Program& prog,
                         SpanRecorder* rec, Sums& sums) {
  Item item;
  item.label = prog.planted ? "fault-planted" : "fault-free";
  item.planted = prog.planted;
  auto probe = std::make_shared<Probe>();
  probe->app = prog.name;
  probe->traced = rec != nullptr;
  std::vector<std::string> body{"cmd|run", "app|" + prog.name,
                                "seed|" + std::to_string(prog.seed),
                                "jobs|1"};
  if (rec != nullptr) body.push_back("metrics|1");
  // The request id is the program name, so replies for one program must
  // be byte-identical: warmth is invisible (DESIGN.md §14).
  const std::string frame = format_request(prog.name, body);

  const double sent_ms = clock_ms();
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd = connect_socket(socket_path_);
    if (fd >= 0) probes_.push_back(probe);
  }
  std::string reply;
  const bool delivered = fd >= 0 && exchange(fd, frame, reply);
  const double reply_ms = clock_ms();
  item.latency_ms = reply_ms - sent_ms;
  item.done_ms = reply_ms;
  if (!delivered) {
    item.failure = "transport error on " + prog.name;
    return item;
  }
  item.failure = judge(prog, reply, probe->attempts.load(), rec != nullptr,
                       item.detected, sums);

  if (rec != nullptr) {
    double resolve_ms = 0.0;
    double built_ms = 0.0;
    double analyzed_ms = 0.0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      resolve_ms = probe->resolve_ms;
      built_ms = probe->built_ms;
      analyzed_ms = probe->analyze_end_ms;
    }
    if (resolve_ms > 0.0) {
      const double checked_ms = clock_ms();
      const std::int64_t root =
          rec->add(Span{"serve.request", sent_ms, checked_ms, kNoSpan, id});
      rec->add(Span{"serve.wait", sent_ms, resolve_ms, root, id});
      const std::int64_t service =
          rec->add(Span{"serve.service", resolve_ms, reply_ms, root, id});
      rec->add(Span{"apps.build", resolve_ms, built_ms, service, id});
      rec->add(Span{"analysis.analyze", built_ms, analyzed_ms, service, id});
      rec->add(Span{"bench.check", reply_ms, checked_ms, root, id});
    }
  }
  return item;
}

// Checks one reply; returns why it is wrong, or "". The protocol carries no
// witness input, so a "found" is checked against the planted fault's
// function and kind; byte-identical repeats are checked on every reply.
std::string ServeFleet::judge(const Program& prog, const std::string& reply,
                              std::uint64_t attempts, bool traced,
                              bool& detected, Sums& sums) {
  detected = false;
  serve::Reply r;
  std::string error;
  if (!serve::parse_reply(reply, r, &error)) {
    return "malformed reply for " + prog.name + ": " + error;
  }
  if (!r.ok) {
    return "error reply for " + prog.name + ": " +
           std::string(serve::body_value(r.body, "error").value_or("?"));
  }
  {
    const std::string masked = mask_seconds(reply);
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, first] = first_reply_.emplace(prog.name, masked);
    if (!first && it->second != masked) {
      return "reply for " + prog.name + " differs from its first reply";
    }
  }

  const double admitted = std::strtod(
      std::string(serve::body_value(r.body, "logs").value_or("0")).c_str(),
      nullptr);
  sums["monitor.attempts"] += static_cast<double>(attempts);
  sums["monitor.admitted"] += admitted;
  if (!prog.planted) {
    sums["fault_free.attempts"] += static_cast<double>(attempts);
    sums["fault_free.admitted"] += admitted;
  }
  if (traced) {
    const std::map<std::string, double> m = reply_metrics(r.body);
    const auto get = [&m](const char* k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    sums["monitor.collect"] += get("phase.log.seconds") * 1e3;
    sums["stats.fit"] += get("phase.stat.seconds") * 1e3;
    sums["symexec.exec"] += get("phase.symexec.seconds") * 1e3;
    sums["solver.solve"] += get("solver.solve.seconds") * 1e3;
    sums["stats.candidates"] += get("stat.candidates");
    sums["symexec.paths"] += get("symexec.paths_explored");
    sums["symexec.instructions"] += get("symexec.instructions");
    sums["symexec.candidates_tried"] += get("symexec.candidates_tried");
    sums["concolic.runs"] += get("engine.concolic_runs");
    sums["solver.queries"] += get("solver.queries");
    sums["solver.slices"] += get("solver.slices");
    sums["solver.fast_hits"] +=
        get("solver.local_cache_hits") + get("solver.model_reuse_hits");
    sums["solver.canonical"] += get("solver.canonical");
    sums["analysis.static_prunes"] += get("solver.static_prunes");
  }

  const auto verdict = serve::body_value(r.body, "verdict");
  if (verdict == "not-found") return "";
  if (verdict != "found") return "reply for " + prog.name + " has no verdict";
  if (!prog.planted) return "reported a fault in fault-free " + prog.name;
  const auto fn = serve::body_value(r.body, "fault-function");
  const auto kind = serve::body_value(r.body, "fault-kind");
  if (fn != prog.vuln_function || kind != prog.vuln_kind) {
    return prog.name + ": claimed " + std::string(kind.value_or("?")) +
           " in " + std::string(fn.value_or("?")) + ", ground truth is " +
           prog.vuln_kind + " in " + prog.vuln_function;
  }
  detected = true;
  return "";
}

PassResult ServeFleet::run(const PassOptions& o) {
  const obs::MetricsRegistry before = session_->metrics();
  std::vector<ClientOut> outs(kClients);
  PassResult res;
  res.start_ms = clock_ms();
  Stopwatch sw;
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([this, &o, &outs, &sw, c] {
        PassOptions mine = o;
        mine.min_items = (o.min_items + kClients - 1) / kClients;
        mine.max_items = o.max_items / kClients;
        Rng rng(derive_seed(seed_, kClientStream + c));
        ClientOut& out = outs[c];
        for (std::size_t k = 0; keep_going(mine, k, sw.elapsed_seconds());
             ++k) {
          Item item;
          try {
            item = request(c * kRequestIdStride + k, pick(c, k, rng), o.rec,
                           out.sums);
          } catch (const std::exception& e) {
            item.failure = std::string("exception: ") + e.what();
            item.done_ms = clock_ms();
          }
          item.in_check_prefix = k < kCheck / kClients;
          out.items.push_back(std::move(item));
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  res.wall_s = sw.elapsed_seconds();
  for (ClientOut& out : outs) {
    for (Item& item : out.items) res.items.push_back(std::move(item));
    for (const auto& [k, v] : out.sums) res.sums[k] += v;
  }

  // Session-level warm/cold split: the only place it is visible.
  const obs::MetricsRegistry after = session_->metrics();
  const auto delta = [&](const char* k) {
    return static_cast<double>(after.counter(k) - before.counter(k));
  };
  const double warm = delta("serve.warm_slice_hits");
  res.sums["serve.warm_hits"] = warm;
  res.sums["serve.cold_slices"] = delta("serve.cold_slices");
  res.sums["serve.errors"] = delta("serve.errors");
  if (o.rec != nullptr) {
    // Replies carry solver.canonical = shared hits + solves; the shared
    // hits of a served request are its session cache hits.
    res.sums["solver.fast_hits"] += warm;
    res.sums["solver.solves"] =
        std::max(0.0, res.sums["solver.canonical"] - warm);
  }
  return res;
}

}  // namespace

std::unique_ptr<Workload> make_serve_fleet(const std::string& work_dir) {
  return std::make_unique<ServeFleet>(work_dir);
}

}  // namespace perfbench
