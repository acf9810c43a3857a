#include "serve/protocol.h"

#include "support/strings.h"

namespace statsym::serve {

namespace {

constexpr std::string_view kHeaderTag = "statsym-serve|";

}  // namespace

const char* frame_error_name(FrameError e) {
  switch (e) {
    case FrameError::kNone: return "none";
    case FrameError::kBadHeader: return "bad-header";
    case FrameError::kBadVersion: return "bad-version";
    case FrameError::kOversized: return "oversized";
    case FrameError::kTruncatedBody: return "truncated-body";
    case FrameError::kMissingTrailer: return "missing-trailer";
  }
  return "?";
}

bool FrameReader::read_line(std::string& out) {
  if (pushed_.has_value()) {
    out = std::move(*pushed_);
    pushed_.reset();
    return true;
  }
  return static_cast<bool>(std::getline(in_, out));
}

void FrameReader::push_back_line(std::string line) {
  pushed_ = std::move(line);
}

bool FrameReader::next(ReadResult& out) {
  out = ReadResult{};
  std::string line;
  // Skip blank separators between frames.
  do {
    if (!read_line(line)) return false;
  } while (trim(line).empty());

  auto fail = [&](FrameError e, std::string why) {
    out.error = e;
    out.message = std::move(why);
    return true;
  };

  const std::string header = std::string(trim(line));
  if (!starts_with(header, kHeaderTag)) {
    // Not even a header: consume this one line and report, leaving the
    // stream positioned at whatever follows — the resync point for a
    // garbled client is its next header line.
    return fail(FrameError::kBadHeader,
                "expected 'statsym-serve|<version>|<id>|<n>' header, got '" +
                    header.substr(0, 64) + "'");
  }
  const auto fields = split(header, '|');
  std::uint64_t version = 0;
  std::uint64_t nbody = 0;
  if (fields.size() != 4 || !parse_u64(fields[1], version) ||
      fields[2].empty() || !parse_u64(fields[3], nbody)) {
    return fail(FrameError::kBadHeader,
                "malformed header (want "
                "'statsym-serve|<version>|<id>|<num_body_lines>')");
  }
  out.frame.version = version;
  out.frame.id = fields[2];

  // The declared shape is validated before any body memory is committed.
  // On failure the body is still drained (up to its trailer or the next
  // header) so the following frame parses cleanly.
  FrameError shape_error = FrameError::kNone;
  std::string shape_message;
  if (version != kServeProtocolVersion) {
    shape_error = FrameError::kBadVersion;
    shape_message = "unsupported protocol version " + fields[1] +
                    " (this build speaks version " +
                    std::to_string(kServeProtocolVersion) + ")";
  } else if (nbody > kMaxBodyLines) {
    shape_error = FrameError::kOversized;
    shape_message = "declared body of " + fields[3] + " lines exceeds the " +
                    std::to_string(kMaxBodyLines) + "-line limit";
  }

  std::vector<std::string> body;
  for (std::uint64_t i = 0; i < nbody; ++i) {
    if (!read_line(line)) {
      return fail(FrameError::kTruncatedBody,
                  "body truncated by end of input (" + std::to_string(i) +
                      " of " + fields[3] + " lines read)");
    }
    const std::string t = std::string(trim(line));
    if (starts_with(t, kHeaderTag)) {
      // The next request started before this body finished: the frame was
      // truncated (or two clients interleaved). Push the header back so
      // the *next* call parses it as its own frame.
      push_back_line(std::move(line));
      return fail(FrameError::kTruncatedBody,
                  "body truncated by the next frame's header (" +
                      std::to_string(i) + " of " + fields[3] +
                      " lines read)");
    }
    if (t == "endreq") {
      return fail(FrameError::kTruncatedBody,
                  "trailer arrived early (" + std::to_string(i) + " of " +
                      fields[3] + " declared body lines present)");
    }
    if (line.size() > kMaxLineBytes) {
      shape_error = FrameError::kOversized;
      shape_message = "body line " + std::to_string(i) + " exceeds the " +
                      std::to_string(kMaxLineBytes) + "-byte limit";
      continue;  // keep draining; the frame is rejected as a whole
    }
    if (shape_error == FrameError::kNone) body.push_back(t);
  }
  if (!read_line(line)) {
    return fail(FrameError::kMissingTrailer,
                "missing 'endreq' trailer (end of input)");
  }
  if (trim(line) != "endreq") {
    if (starts_with(trim(line), kHeaderTag)) push_back_line(std::move(line));
    return fail(FrameError::kMissingTrailer,
                "missing 'endreq' trailer after declared body");
  }
  if (shape_error != FrameError::kNone) {
    return fail(shape_error, std::move(shape_message));
  }
  out.frame.body = std::move(body);
  return true;
}

std::string format_reply(std::string_view id, bool ok,
                         const std::vector<std::string>& body) {
  std::string out = "statsym-reply|";
  out += std::to_string(kServeProtocolVersion);
  out += '|';
  out += id;
  out += ok ? "|ok|" : "|error|";
  out += std::to_string(body.size());
  out += '\n';
  for (const std::string& l : body) {
    out += l;
    out += '\n';
  }
  out += "endreply\n";
  return out;
}

std::string format_error_reply(std::string_view id, std::string_view code,
                               std::string_view message) {
  return format_reply(id, /*ok=*/false,
                      {"code|" + std::string(code),
                       "error|" + std::string(message)});
}

bool parse_reply(const std::string& text, Reply& out, std::string* error) {
  auto fail = [&](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  const auto lines = split(text, '\n');
  std::size_t at = 0;
  while (at < lines.size() && trim(lines[at]).empty()) ++at;
  if (at >= lines.size()) return fail("reply: empty input");
  const auto fields = split(trim(lines[at]), '|');
  std::uint64_t nbody = 0;
  if (fields.size() != 5 || fields[0] != "statsym-reply" ||
      !parse_u64(fields[4], nbody)) {
    return fail("reply: malformed header");
  }
  if (!parse_u64(fields[1], out.version) || fields[2].empty()) {
    return fail("reply: malformed header");
  }
  if (fields[3] == "ok") {
    out.ok = true;
  } else if (fields[3] == "error") {
    out.ok = false;
  } else {
    return fail("reply: status must be ok|error");
  }
  out.id = fields[2];
  ++at;
  out.body.clear();
  for (std::uint64_t i = 0; i < nbody; ++i, ++at) {
    if (at >= lines.size()) return fail("reply: body truncated");
    out.body.push_back(lines[at]);
  }
  if (at >= lines.size() || trim(lines[at]) != "endreply") {
    return fail("reply: missing 'endreply' trailer");
  }
  return true;
}

std::optional<std::string_view> body_value(
    const std::vector<std::string>& body, std::string_view key) {
  for (const std::string& l : body) {
    const std::string_view sv(l);
    if (sv.size() > key.size() && sv.substr(0, key.size()) == key &&
        sv[key.size()] == '|') {
      return sv.substr(key.size() + 1);
    }
  }
  return std::nullopt;
}

}  // namespace statsym::serve
