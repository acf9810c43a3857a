// Session state for `statsym serve` (DESIGN.md §14).
//
// A ServeSession owns the process-wide persistent store: one
// SharedQueryCache per analysed program, keyed by the program's 128-bit
// structural fingerprint, living across requests (and — through the disk
// store in solver/cache_store.h — across processes). handle() executes one
// parsed request frame and returns the serialized reply. Only programs
// whose cache holds entries are kept: a fault-free program never reaches
// the solver, and its empty cache is dropped when the last request using
// it finishes, so session memory grows with solver work, not with the
// number of distinct programs seen.
//
// Determinism contract: a served `run` request is byte-identical (verdict,
// solver-stat sums, metrics modulo *.seconds gauges, trace) to the
// equivalent one-shot CLI invocation, at any --jobs and any cache warmth.
// Two ingredients make that hold:
//   * per-request seed isolation — the effective seed is the request's
//     explicit `seed` field or derive_seed(session_seed, hash(request_id)),
//     a pure function of the request, never of what ran before it;
//   * warmth-invariant reporting — reply bodies only carry sums the solver
//     layer guarantees independent of cache warmth (e.g. solver.canonical =
//     shared_cache_hits + solves); the warm/cold split lives in session
//     `serve.*` counters, which describe the session, not the request.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "apps/registry.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "solver/cache.h"
#include "solver/cache_store.h"
#include "statsym/run_options.h"

namespace statsym::serve {

// Structural fingerprint of a module: the store key that lets warm entries
// find their program again in a later process. Computed over the printed
// IR, so any semantic edit changes it and the edited program starts cold.
solver::Fp128 program_fingerprint(const ir::Module& m);

// The inherited run options are the defaults of every `run` request, so a
// request with only `app` set equals `statsym run <app>` byte-for-byte. A
// request's seed is its `seed|` field or derived from session_seed.
struct ServeOptions : core::RunOptions {
  std::uint64_t session_seed{seed};
  std::string store_path;  // disk store; empty = in-memory only
};

class ServeSession {
 public:
  explicit ServeSession(ServeOptions opts);

  // Executes one request frame and returns its serialized reply. Never
  // throws and never kills the session: app-resolution failures, unknown
  // fields and bad values all come back as structured error replies.
  // Thread-safe — the server runs concurrent requests on its pool.
  std::string handle(const Frame& frame);

  // Disk store round-trip against ServeOptions::store_path. A missing file
  // is a clean cold start (true, no error); a malformed or
  // version-mismatched store is a *reported* cold start (false + error) —
  // never a partially-trusted one.
  bool load_store(std::string* error = nullptr);
  bool save_store(std::string* error = nullptr);

  // Text-level store access for corruption tests (same verification path
  // the file route uses).
  std::string store_text() const;
  bool load_store_from_text(const std::string& text,
                            std::string* error = nullptr);

  // True once a `cmd|shutdown` request has been handled; the server stops
  // accepting frames.
  bool shutdown_requested() const;

  // Session-level `serve.*` counters (requests, errors, warm/cold slice
  // hits, store bytes) — deterministic names, schedule-dependent values.
  obs::MetricsRegistry metrics() const;

  // Test seam: replaces apps::make_app for request app resolution.
  using AppResolver = std::function<apps::AppSpec(const std::string&)>;
  void set_resolver(AppResolver resolver) { resolver_ = std::move(resolver); }

  std::size_t num_programs() const;

 private:
  // One store slot: the program's cache and the in-flight requests using
  // it. A slot whose cache is empty is erased once it has no users.
  struct Slot {
    std::unique_ptr<solver::SharedQueryCache> cache;
    std::size_t users{0};
  };
  class CacheLease;

  // Store slot for `fp`, created empty on first use. Caller holds mu_.
  Slot& slot_locked(const solver::Fp128& fp);
  std::string handle_run(const Frame& frame);
  std::string handle_stats(const Frame& frame);
  std::string handle_save(const Frame& frame);
  void bump(const std::string& counter, std::uint64_t delta = 1);

  ServeOptions opts_;
  AppResolver resolver_;
  mutable std::mutex mu_;  // guards store_, metrics_, shutdown_
  // Fp128 has operator<; std::map keeps store serialization order stable.
  std::map<solver::Fp128, Slot> store_;
  obs::MetricsRegistry metrics_;
  bool shutdown_{false};
};

}  // namespace statsym::serve
