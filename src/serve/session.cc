#include "serve/session.h"

#include <fstream>
#include <sstream>

#include "ir/printer.h"
#include "support/rng.h"
#include "support/strings.h"

namespace statsym::serve {

namespace {

std::string u64s(std::uint64_t v) { return std::to_string(v); }

}  // namespace

solver::Fp128 program_fingerprint(const ir::Module& m) {
  const std::string text = ir::to_string(m);
  solver::Fp128 h;
  h = solver::fp_absorb(h, solver::fp_hash_str(text));
  h = solver::fp_absorb(h, static_cast<std::uint64_t>(text.size()));
  return h;
}

ServeSession::ServeSession(ServeOptions opts)
    : opts_(std::move(opts)),
      resolver_([](const std::string& name) { return apps::make_app(name); }) {
}

ServeSession::Slot& ServeSession::slot_locked(const solver::Fp128& fp) {
  Slot& slot = store_[fp];
  if (!slot.cache) slot.cache = std::make_unique<solver::SharedQueryCache>();
  return slot;
}

// A request's claim on its program's cache. Two in-flight requests for one
// program share the slot; the last one out erases it if the runs left the
// cache empty (nothing to warm a later request with, nothing to save).
class ServeSession::CacheLease {
 public:
  CacheLease(ServeSession& s, const solver::Fp128& fp) : s_(s), fp_(fp) {
    std::lock_guard<std::mutex> lock(s_.mu_);
    Slot& slot = s_.slot_locked(fp_);
    ++slot.users;
    cache_ = slot.cache.get();
  }
  ~CacheLease() {
    std::lock_guard<std::mutex> lock(s_.mu_);
    auto it = s_.store_.find(fp_);
    if (--it->second.users == 0 && it->second.cache->size() == 0) {
      s_.store_.erase(it);
    }
  }
  CacheLease(const CacheLease&) = delete;
  CacheLease& operator=(const CacheLease&) = delete;

  solver::SharedQueryCache& cache() const { return *cache_; }

 private:
  ServeSession& s_;
  solver::Fp128 fp_;
  solver::SharedQueryCache* cache_{nullptr};
};

void ServeSession::bump(const std::string& counter, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.add(counter, delta);
}

bool ServeSession::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

obs::MetricsRegistry ServeSession::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

std::size_t ServeSession::num_programs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.size();
}

std::string ServeSession::handle(const Frame& frame) {
  bump("serve.requests");
  std::string cmd = "run";
  if (const auto v = body_value(frame.body, "cmd")) cmd = std::string(*v);
  try {
    if (cmd == "run") return handle_run(frame);
    if (cmd == "ping") {
      return format_reply(frame.id, true, {"pong|1"});
    }
    if (cmd == "stats") return handle_stats(frame);
    if (cmd == "save") return handle_save(frame);
    if (cmd == "shutdown") {
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
      }
      return format_reply(frame.id, true, {"shutdown|1"});
    }
    bump("serve.errors");
    return format_error_reply(frame.id, "bad-request",
                              "unknown cmd '" + cmd +
                                  "' (want run|ping|stats|save|shutdown)");
  } catch (const std::exception& e) {
    // e.g. apps::make_app on an unknown app name. The request dies; the
    // session does not.
    bump("serve.errors");
    return format_error_reply(frame.id, "bad-request", e.what());
  }
}

std::string ServeSession::handle_run(const Frame& frame) {
  // Per-request nondeterminism isolation: the effective seed is a pure
  // function of the request, so replaying a request id in any session, at
  // any warmth, after any request history, reproduces the same run.
  core::RunOptions run = opts_;
  run.seed = derive_seed(opts_.session_seed, solver::fp_hash_str(frame.id));
  // The other fields go through the run-option validator: a typo'd field or
  // bad value silently falling back to a default would make the reply
  // answer a different question than the client asked.
  for (const std::string& line : frame.body) {
    const std::size_t bar = line.find('|');
    const std::string_view key = std::string_view(line).substr(0, bar);
    if (bar != std::string::npos && (key == "cmd" || key == "app")) continue;
    const std::string_view value =
        bar == std::string::npos ? "" : std::string_view(line).substr(bar + 1);
    const std::string error =
        run.set(key, value, core::RunOptions::Source::kRequest);
    if (!error.empty()) {
      bump("serve.errors");
      return format_error_reply(frame.id, "bad-request",
                                std::string(key) + ": " + error);
    }
  }
  const auto app_name = body_value(frame.body, "app");
  if (!app_name.has_value() || app_name->empty()) {
    bump("serve.errors");
    return format_error_reply(frame.id, "bad-request",
                              "run request needs an 'app|<name>' field");
  }

  const apps::AppSpec app = resolver_(std::string(*app_name));
  const CacheLease lease(*this, program_fingerprint(app.module));
  solver::SharedQueryCache& cache = lease.cache();

  core::StatSymEngine engine(app.module, app.sym_spec,
                             run.to_engine_options());
  obs::Tracer tracer;  // deterministic rendering; no wall clock
  if (run.trace) engine.set_tracer(&tracer);
  engine.set_shared_solver_cache(&cache);

  const auto before = cache.counters();
  engine.collect_logs(app.workload);
  const core::EngineResult res = engine.run();
  const auto after = cache.counters();

  {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.add("serve.runs");
    // Session-level warmth accounting. These are the *only* place the
    // warm/cold split is visible — reply bodies carry invariant sums.
    metrics_.add("serve.warm_slice_hits", after.hits - before.hits);
    metrics_.add("serve.cold_slices", after.misses - before.misses);
    metrics_.add("serve.cache_insertions",
                 after.insertions - before.insertions);
  }

  std::vector<std::string> body;
  body.push_back("app|" + std::string(*app_name));
  body.push_back("seed|" + u64s(run.seed));
  body.push_back(std::string("verdict|") +
                 (res.found ? "found" : "not-found"));
  if (res.found && res.vuln.has_value()) {
    body.push_back(std::string("fault-kind|") +
                   interp::fault_kind_name(res.vuln->kind));
    body.push_back("fault-function|" + res.vuln->function);
  }
  body.push_back("winning-candidate|" + u64s(res.winning_candidate));
  body.push_back("candidates-tried|" + u64s(res.candidates_tried));
  body.push_back("logs|" + u64s(res.num_correct_logs + res.num_faulty_logs));
  body.push_back("paths|" + u64s(res.paths_explored));
  body.push_back("instructions|" + u64s(res.instructions));
  // Solver sums, restricted to warmth-invariant combinations: the
  // shared-hit vs canonical-solve split depends on what previous requests
  // left in the cache, their sum does not (DESIGN.md §"Solver").
  const solver::SolverStats& ss = res.solver_stats;
  body.push_back("solver.queries|" + u64s(ss.queries));
  body.push_back("solver.slices|" + u64s(ss.slices));
  body.push_back("solver.local-hits|" + u64s(ss.cache_hits));
  body.push_back("solver.canonical|" + u64s(ss.shared_cache_hits + ss.solves));
  body.push_back("solver.static-prunes|" + u64s(ss.static_prunes));
  if (run.metrics) {
    body.push_back("beginmetrics");
    for (const std::string& l : split(res.metrics.to_json(), '\n')) {
      if (!l.empty()) body.push_back(l);
    }
    body.push_back("endmetrics");
  }
  if (run.trace) {
    body.push_back("begintrace");
    for (const std::string& l : split(tracer.to_jsonl(), '\n')) {
      if (!l.empty()) body.push_back(l);
    }
    body.push_back("endtrace");
  }
  return format_reply(frame.id, true, body);
}

std::string ServeSession::handle_stats(const Frame& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> body;
  body.push_back("programs|" + u64s(store_.size()));
  std::uint64_t entries = 0;
  for (const auto& [fp, slot] : store_) entries += slot.cache->size();
  body.push_back("cache-entries|" + u64s(entries));
  for (const auto& [name, value] : metrics_.counters()) {
    body.push_back("counter|" + name + "|" + u64s(value));
  }
  return format_reply(frame.id, true, body);
}

std::string ServeSession::handle_save(const Frame& frame) {
  if (opts_.store_path.empty()) {
    bump("serve.errors");
    return format_error_reply(frame.id, "bad-request",
                              "session has no --store path to save to");
  }
  std::string error;
  if (!save_store(&error)) {
    bump("serve.errors");
    return format_error_reply(frame.id, "io-error", error);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return format_reply(
      frame.id, true,
      {"store|" + opts_.store_path,
       "store-bytes|" + u64s(metrics_.counter("serve.store_bytes"))});
}

std::string ServeSession::store_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<solver::StoreBlockRef> blocks;
  blocks.reserve(store_.size());
  for (const auto& [fp, slot] : store_) {
    // A slot still in use by a request can be empty for now; it has
    // nothing to save.
    if (slot.cache->size() == 0) continue;
    blocks.push_back(solver::StoreBlockRef{fp, slot.cache.get()});
  }
  return solver::serialize_store(blocks);
}

bool ServeSession::load_store_from_text(const std::string& text,
                                        std::string* error) {
  solver::CacheStoreStats stats;
  std::lock_guard<std::mutex> lock(mu_);
  const bool ok = solver::load_store_text(
      text, [this](const solver::Fp128& fp) -> solver::SharedQueryCache& {
        return *slot_locked(fp).cache;
      },
      &stats, error);
  // Blocks whose every entry was rejected leave no empty program behind.
  std::erase_if(store_, [](const auto& kv) {
    return kv.second.users == 0 && kv.second.cache->size() == 0;
  });
  metrics_.add("serve.store_bytes", stats.bytes);
  metrics_.add("serve.store_entries_loaded", stats.entries_loaded);
  metrics_.add("serve.store_entries_rejected", stats.entries_rejected);
  return ok;
}

bool ServeSession::load_store(std::string* error) {
  if (opts_.store_path.empty()) return true;
  std::ifstream in(opts_.store_path);
  if (!in) return true;  // no store yet: clean cold start
  std::stringstream ss;
  ss << in.rdbuf();
  return load_store_from_text(ss.str(), error);
}

bool ServeSession::save_store(std::string* error) {
  if (opts_.store_path.empty()) {
    if (error != nullptr) *error = "no store path configured";
    return false;
  }
  const std::string text = store_text();
  std::ofstream os(opts_.store_path);
  if (!os) {
    if (error != nullptr) *error = "cannot write " + opts_.store_path;
    return false;
  }
  os << text;
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.add("serve.store_bytes", text.size());
  return true;
}

}  // namespace statsym::serve
