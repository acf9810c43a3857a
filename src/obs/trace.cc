#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace statsym::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kPhaseBegin: return "phase-begin";
    case EventKind::kPhaseEnd: return "phase-end";
    case EventKind::kLogAdmitted: return "log-admitted";
    case EventKind::kPredicateFit: return "predicate-fit";
    case EventKind::kCandidateRanked: return "candidate-ranked";
    case EventKind::kExecBegin: return "exec-begin";
    case EventKind::kStateFork: return "state-fork";
    case EventKind::kStateSuspend: return "state-suspend";
    case EventKind::kStateWake: return "state-wake";
    case EventKind::kStateTerminate: return "state-terminate";
    case EventKind::kSolverQuery: return "solver-query";
    case EventKind::kSolverSlice: return "solver-slice";
    case EventKind::kExecEnd: return "exec-end";
    case EventKind::kEngineLaneBegin: return "engine-lane-begin";
    case EventKind::kEngineLaneEnd: return "engine-lane-end";
    case EventKind::kConcolicRun: return "concolic-run";
    case EventKind::kConcolicNegation: return "concolic-negation";
    case EventKind::kStaticPrune: return "static-prune";
    case EventKind::kNote: return "note";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

void TraceBuffer::emit(EventKind kind, std::int64_t a, std::int64_t b,
                       std::int64_t c, std::string name) {
  TraceEvent ev;
  ev.kind = kind;
  ev.lane = lane_;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.name = std::move(name);
  if (clock_ != nullptr) ev.wall = clock_->elapsed_seconds();
  push(std::move(ev));
}

void TraceBuffer::push(TraceEvent&& ev) {
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

Tracer::Tracer(TraceOptions opts) : root_(opts.capacity) {
  if (opts.wall_clock) root_.set_clock(&clock_);
}

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
}

// Per-kind payload key names ("" = field not rendered).
struct FieldNames {
  const char* a;
  const char* b;
  const char* c;
  bool name;
};

FieldNames fields_of(EventKind k) {
  switch (k) {
    case EventKind::kPhaseBegin: return {"", "", "", true};
    case EventKind::kPhaseEnd: return {"", "", "", true};
    case EventKind::kLogAdmitted: return {"run", "faulty", "records", false};
    case EventKind::kPredicateFit: return {"rank", "loc", "score_u", true};
    case EventKind::kCandidateRanked: return {"rank", "nodes", "score_u", false};
    case EventKind::kExecBegin: return {"candidate", "", "", false};
    case EventKind::kStateFork: return {"parent", "child", "", false};
    case EventKind::kStateSuspend: return {"state", "", "", false};
    case EventKind::kStateWake: return {"state", "", "", false};
    case EventKind::kStateTerminate: return {"state", "reason", "", false};
    case EventKind::kSolverQuery: return {"verdict", "slices", "", false};
    case EventKind::kSolverSlice: return {"level", "verdict", "", false};
    case EventKind::kExecEnd: return {"termination", "live", "suspended", false};
    case EventKind::kEngineLaneBegin: return {"priority", "kind", "", true};
    case EventKind::kEngineLaneEnd:
      return {"priority", "found", "termination", true};
    case EventKind::kConcolicRun: return {"run", "decisions", "faulted", false};
    case EventKind::kConcolicNegation:
      return {"run", "decision", "verdict", false};
    case EventKind::kStaticPrune: return {"func", "block", "dir", true};
    case EventKind::kNote: return {"a", "b", "c", true};
  }
  return {"a", "b", "c", true};
}

}  // namespace

void Tracer::write_jsonl(std::ostream& os, bool include_wall) const {
  const std::vector<TraceEvent> evs = root_.snapshot();
  std::uint64_t seq = root_.dropped();
  for (const TraceEvent& ev : evs) {
    const FieldNames f = fields_of(ev.kind);
    os << "{\"seq\": " << seq++ << ", \"ev\": \"" << event_kind_name(ev.kind)
       << "\", \"lane\": " << ev.lane;
    if (f.a[0] != '\0') os << ", \"" << f.a << "\": " << ev.a;
    if (f.b[0] != '\0') os << ", \"" << f.b << "\": " << ev.b;
    if (f.c[0] != '\0') os << ", \"" << f.c << "\": " << ev.c;
    if (f.name) {
      os << ", \"name\": \"";
      json_escape(os, ev.name);
      os << "\"";
    }
    if (include_wall && ev.wall >= 0.0) {
      os << ", \"wall_us\": "
         << static_cast<std::int64_t>(std::llround(ev.wall * 1e6));
    }
    os << "}\n";
  }
}

std::string Tracer::to_jsonl(bool include_wall) const {
  std::ostringstream os;
  write_jsonl(os, include_wall);
  return os.str();
}

void Tracer::write_chrome(std::ostream& os) const {
  const std::vector<TraceEvent> evs = root_.snapshot();
  os << "[";
  std::uint64_t seq = root_.dropped();
  bool first = true;
  for (const TraceEvent& ev : evs) {
    const std::int64_t ts =
        ev.wall >= 0.0 ? static_cast<std::int64_t>(std::llround(ev.wall * 1e6))
                       : static_cast<std::int64_t>(seq);
    const char* ph = "i";
    std::string name = event_kind_name(ev.kind);
    switch (ev.kind) {
      case EventKind::kPhaseBegin:
        ph = "B";
        name = ev.name;
        break;
      case EventKind::kPhaseEnd:
        ph = "E";
        name = ev.name;
        break;
      case EventKind::kExecBegin:
        ph = "B";
        name = "candidate-" + std::to_string(ev.a);
        break;
      case EventKind::kExecEnd:
        ph = "E";
        name = "candidate";
        break;
      case EventKind::kEngineLaneBegin:
        ph = "B";
        name = "lane-" + ev.name;
        break;
      case EventKind::kEngineLaneEnd:
        ph = "E";
        name = "lane-" + ev.name;
        break;
      default:
        break;
    }
    os << (first ? "\n" : ",\n") << "{\"name\": \"";
    json_escape(os, name);
    os << "\", \"ph\": \"" << ph << "\", \"ts\": " << ts
       << ", \"pid\": 0, \"tid\": " << ev.lane;
    if (ph[0] == 'i') {
      os << ", \"s\": \"t\", \"args\": {\"a\": " << ev.a << ", \"b\": " << ev.b
         << ", \"c\": " << ev.c << "}";
    }
    os << "}";
    first = false;
    ++seq;
  }
  os << "\n]\n";
}

}  // namespace statsym::obs
