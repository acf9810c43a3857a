// Structured pipeline tracing.
//
// A TraceBuffer is a bounded in-memory ring of typed events; a Tracer owns
// the run's one buffer. Phase 3 emits into it directly, tagging each event
// with the lane of the candidate or engine lane that produced it
// (TraceBuffer::set_lane); candidates and lanes run one after another, so
// the stream is already in rank and priority order. Every event is a pure
// function of the analysis's inputs, so the stream is byte-identical from
// run to run — which is what makes traces goldenable.
//
// Determinism contract (DESIGN.md §"Observability"):
//   * every event payload is integers + strings derived from deterministic
//     pipeline state (doubles are carried as micros via llround);
//   * wall-clock stamps are opt-in (set_clock) and excluded from the
//     deterministic JSONL rendering — they exist for the Chrome export;
//   * solver events collapse "shared-cache hit" and "canonical solve" into
//     one level, because which of the two answers a slice depends on cache
//     warmth (a serve session's cache outlives its requests); the results
//     themselves are bit-identical by construction.
//
// The disabled path is a null pointer check at every call site: no event is
// constructed, no clock is read.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "support/stopwatch.h"

namespace statsym::obs {

enum class EventKind : std::uint8_t {
  kPhaseBegin,       // name = phase
  kPhaseEnd,         // name = phase; wall stamp when a clock is set
  kLogAdmitted,      // a = run id, b = faulty, c = records kept
  kPredicateFit,     // a = rank, b = loc, c = score micros; name = display
  kCandidateRanked,  // a = rank, b = path nodes, c = score micros
  kExecBegin,        // a = candidate rank (1-based; 0 = pure run)
  kStateFork,        // a = parent state id, b = child state id
  kStateSuspend,     // a = state id
  kStateWake,        // a = state id
  kStateTerminate,   // a = state id, b = reason (0 ok, 1 infeasible, 2 fault)
  kSolverQuery,      // a = verdict (0 sat, 1 unsat, 2 unknown), b = slices
  kSolverSlice,      // a = level (0 local, 2 canonical; 1 is retired),
                     // b = verdict
  kExecEnd,          // a = termination code, b = live left, c = suspended left
  kEngineLaneBegin,  // a = priority, b = kind code; name = engine name
  kEngineLaneEnd,    // a = priority, b = found, c = termination code;
                     // name = engine name
  kConcolicRun,      // a = run index, b = decisions recorded, c = faulted
  kConcolicNegation, // a = run index, b = decision index,
                     // c = verdict (0 sat, 1 unsat, 2 unknown)
  kStaticPrune,      // a = function id, b = block (-1 for candidate drops),
                     // c = direction taken / candidate rank;
                     // name = "branch" or "candidate"
  kNote,             // free-form marker: name + a/b/c
};

const char* event_kind_name(EventKind k);

struct TraceEvent {
  EventKind kind{EventKind::kNote};
  std::uint32_t lane{0};  // 0 = pipeline, k = candidate rank k (1-based),
                          // 100+p = engine lane of priority p
  std::int64_t a{0};
  std::int64_t b{0};
  std::int64_t c{0};
  double wall{-1.0};  // seconds since the tracer clock; -1 = not stamped
  std::string name;
};

// Bounded event ring. When full, the *oldest* events are evicted — the
// stream is a deterministic suffix of the full event sequence, and
// `dropped()` reports the evicted prefix length.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  void emit(EventKind kind, std::int64_t a = 0, std::int64_t b = 0,
            std::int64_t c = 0, std::string name = {});

  void set_lane(std::uint32_t lane) { lane_ = lane; }
  std::uint32_t lane() const { return lane_; }
  // Optional wall-clock stamping; the clock must outlive the buffer.
  void set_clock(const Stopwatch* clock) { clock_ = clock; }

  std::size_t size() const { return ring_.size(); }
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const { return total_ - ring_.size(); }

  // Events oldest-first. Index i has absolute sequence number dropped()+i.
  std::vector<TraceEvent> snapshot() const;

 private:
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  void push(TraceEvent&& ev);

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;  // rotated: ring_[(head_ + i) % size]
  std::size_t head_{0};
  std::uint64_t total_{0};
  std::uint32_t lane_{0};
  const Stopwatch* clock_{nullptr};
};

struct TraceOptions {
  std::size_t capacity{1u << 18};
  // Stamp events with wall-clock seconds (needed for the Chrome export;
  // leave off for golden traces).
  bool wall_clock{false};
};

// Owns the run's event stream and renders it.
class Tracer {
 public:
  explicit Tracer(TraceOptions opts = {});

  TraceBuffer& buffer() { return root_; }
  const TraceBuffer& buffer() const { return root_; }

  void emit(EventKind kind, std::int64_t a = 0, std::int64_t b = 0,
            std::int64_t c = 0, std::string name = {}) {
    root_.emit(kind, a, b, c, std::move(name));
  }

  // One JSON object per line, schema per event kind (see event comments).
  // Deterministic byte stream; `include_wall` adds the (nondeterministic)
  // "wall_us" field and is off for golden traces.
  void write_jsonl(std::ostream& os, bool include_wall = false) const;
  std::string to_jsonl(bool include_wall = false) const;

  // Chrome about://tracing (trace-event JSON array): phases and candidate
  // executions become duration events, everything else instants. Uses wall
  // stamps when present, absolute sequence numbers otherwise.
  void write_chrome(std::ostream& os) const;

 private:
  Stopwatch clock_;
  TraceBuffer root_;
};

}  // namespace statsym::obs
