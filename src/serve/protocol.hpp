// The service wire protocol: line-delimited strict JSON, one request line
// in, one response line out. Transport-independent — the simd_server daemon
// speaks it over an AF_UNIX socket or stdin/stdout, and tests drive it as a
// pure function.
//
// Requests ("op" selects the operation):
//   {"op":"submit","spec":{...},"useCache":true,"deadlineMs":0}
//   {"op":"poll","id":N}       {"op":"wait","id":N}   (wait blocks)
//   {"op":"cancel","id":N}     {"op":"status"}        {"op":"shutdown"}
//
// Responses always carry "ok". Success: {"ok":true,...}; any malformed
// line, unknown op, invalid spec or rejected submission answers
// {"ok":false,"error":"..."} — and the connection (and daemon) stay up:
// a bad request must never take the service down. That includes a line
// longer than kMaxLineBytes: it is drained to its newline, never buffered
// whole, and answered with an error.
#pragma once

#include <cstddef>
#include <string>

#include "serve/server.hpp"

namespace anton::serve {

/// Canonical JSON rendering of a job record (the "job" field of poll/wait
/// responses).
std::string recordToJson(const JobRecord& rec);

struct ProtocolResult {
  std::string response;   ///< one JSON line (no trailing newline)
  bool shutdown = false;  ///< the request asked the daemon to exit
};

/// Execute one request line against the server. Never throws: every failure
/// becomes an {"ok":false,...} response.
ProtocolResult handleLine(JobServer& server, const std::string& line);

/// Longest request line a session accepts, excluding its '\n'.
inline constexpr std::size_t kMaxLineBytes = std::size_t(1) << 20;

/// Splits the byte stream of a file descriptor into '\n'-terminated lines,
/// holding at most kMaxLineBytes plus one read chunk of any line, and
/// scanning each byte for the terminator once.
class LineReader {
 public:
  enum class Status {
    kLine,     ///< `line` holds the next line (a final unterminated one too)
    kTooLong,  ///< a line over kMaxLineBytes was read and discarded
    kEof,      ///< end of stream or read error, nothing pending
  };

  explicit LineReader(int fd) : fd_(fd) {}
  Status next(std::string& line);

 private:
  int fd_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< prefix of buffer_ known to hold no '\n'
  bool discarding_ = false;  ///< inside an over-long line
};

/// Serve one session: answer every non-empty request line read from `inFd`
/// with one response line on `outFd`. Returns true when a request asked the
/// daemon to shut down, false at end of input or on a write error.
bool serveSession(JobServer& server, int inFd, int outFd);

}  // namespace anton::serve
