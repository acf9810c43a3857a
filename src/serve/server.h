// Request loop for `statsym serve` (DESIGN.md §14).
//
// serve_stream() reads frames off an input stream, dispatches each request
// onto a support::ThreadPool, and writes replies to the output stream in
// *request arrival order* — concurrent execution never reorders replies, so
// a scripted client can pair request k with reply k positionally. Parse
// errors become structured error replies in the same ordered stream and the
// loop keeps reading (the session survives malformed clients; see
// serve/protocol.h for the resync rules).
//
// serve_unix_socket() is the multi-client front end: an AF_UNIX listener
// that serves one connection at a time with the same loop (the session —
// and its warm caches — persists across connections).
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "serve/session.h"

namespace statsym::serve {

// Runs the request loop until end of input or a handled `cmd|shutdown`.
// `jobs` sizes the worker pool (0 = all hardware threads). Returns the
// number of frames processed (including ones answered with errors).
std::size_t serve_stream(std::istream& in, std::ostream& out,
                         ServeSession& session, std::size_t jobs = 0);

// Listens on an AF_UNIX socket at `path` (unlinking any stale file first)
// and serves connections sequentially until a client sends `cmd|shutdown`.
// Returns 0, or 1 with a message on stderr when the socket cannot be set
// up.
int serve_unix_socket(const std::string& path, ServeSession& session,
                      std::size_t jobs = 0);

// Flag-misuse check for the CLI: one-shot
// output flags are superseded by per-request `trace|1` / `metrics|1` body
// fields in serve mode, so combining them with `serve` is a hard error.
// Returns "" when the combination is fine, else the full error text naming
// the offending flag.
std::string check_serve_flags(bool has_trace_out, bool has_trace_chrome,
                              bool has_metrics_out);

}  // namespace statsym::serve
