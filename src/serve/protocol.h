// Wire protocol for `statsym serve` (DESIGN.md §14).
//
// Requests are line-delimited versioned frames (header, counted body,
// trailer):
//
//   statsym-serve|<version>|<request-id>|<num_body_lines>
//   <key>|<value>
//   ...
//   endreq
//
// and every frame — well-formed or not — yields exactly one reply frame:
//
//   statsym-reply|<version>|<request-id>|<ok|error>|<num_body_lines>
//   <body line>
//   ...
//   endreply
//
// Malformed input never kills the session: the reader produces a structured
// parse error for the broken frame and *resynchronises* on the next
// `statsym-serve|` header line, so a client that garbled one request (or two
// clients that interleaved their writes) can keep using the connection. The
// error cases — bad header, unknown version, oversized declaration, body
// truncated by the next frame's header, missing trailer — are enumerated by
// FrameError and exercised one-by-one in tests/serve_test.cc.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace statsym::serve {

// Bump when the frame grammar changes shape. Readers accept exactly the
// versions they understand (currently: only this one).
inline constexpr std::uint64_t kServeProtocolVersion = 1;

// Hard limits a frame must respect before any body memory is committed.
inline constexpr std::size_t kMaxBodyLines = 256;
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

struct Frame {
  std::uint64_t version{kServeProtocolVersion};
  std::string id;                  // client-chosen request id (echoed back)
  std::vector<std::string> body;   // `key|value` lines
};

enum class FrameError : std::uint8_t {
  kNone,
  kBadHeader,        // line is not a well-formed statsym-serve header
  kBadVersion,       // well-formed header, version this build does not speak
  kOversized,        // declared body exceeds kMaxBodyLines / line too long
  kTruncatedBody,    // body cut short by EOF or by the next frame's header
  kMissingTrailer,   // body complete but 'endreq' absent
};

const char* frame_error_name(FrameError e);

// Outcome of one FrameReader::next() call: either a frame, or a structured
// parse error (error != kNone) carrying the offending request id when the
// header got far enough to supply one.
struct ReadResult {
  Frame frame;
  FrameError error{FrameError::kNone};
  std::string message;  // human-readable reason, non-empty iff error
};

// Pulls frames off a line stream, recovering from malformed input by
// scanning forward to the next header line. One reader per connection; not
// thread-safe (the server owns reads, workers own handling).
class FrameReader {
 public:
  explicit FrameReader(std::istream& in) : in_(in) {}

  // False at end of input; true otherwise, with `out` holding either a
  // frame or a parse error. After an error the reader has consumed the
  // broken frame (up to its trailer or the next header) and is ready for
  // the next call.
  bool next(ReadResult& out);

 private:
  bool read_line(std::string& out);
  void push_back_line(std::string line);

  std::istream& in_;
  std::optional<std::string> pushed_;  // one-line pushback for resync
};

// Reply formatting (the only writer — tests parse replies with
// parse_reply below to assert structure, not string-match the framing).
std::string format_reply(std::string_view id, bool ok,
                         const std::vector<std::string>& body);

// Canonical structured error reply: body is `code|<slug>` + `error|<text>`.
// Used for both parse errors (code = frame_error_name) and request errors
// (code = "bad-request" etc.).
std::string format_error_reply(std::string_view id, std::string_view code,
                               std::string_view message);

struct Reply {
  std::uint64_t version{0};
  std::string id;
  bool ok{false};
  std::vector<std::string> body;
};

// Strict reply parse (tests + any future client). False on any deviation.
bool parse_reply(const std::string& text, Reply& out,
                 std::string* error = nullptr);

// First `<key>|` body line's value, or nullopt. Shared by the session
// (request fields) and tests (reply fields).
std::optional<std::string_view> body_value(
    const std::vector<std::string>& body, std::string_view key);

}  // namespace statsym::serve
