#include "serve/protocol.hpp"

#include <unistd.h>

#include <cerrno>
#include <sstream>

#include "util/json.hpp"

namespace anton::serve {
namespace {

namespace json = util::json;

std::string errorResponse(const std::string& message) {
  return "{\"ok\":false,\"error\":" + json::quoted(message) + "}";
}

std::uint64_t requestId(const json::Value& req) {
  return json::asU64(json::field(req, "id", "request.id"), "request.id");
}

std::string handleSubmit(JobServer& server, const json::Value& req) {
  JobSpec spec = specFromValue(json::field(req, "spec", "request.spec"));
  SubmitOptions opts;
  if (const json::Value* f = json::optField(req, "useCache"))
    opts.useCache = json::asBool(*f, "request.useCache");
  if (const json::Value* f = json::optField(req, "deadlineMs"))
    opts.deadlineMs = json::asDouble(*f, "request.deadlineMs");
  SubmitOutcome out = server.submit(spec, opts);
  if (!out.accepted)
    return "{\"ok\":false,\"rejected\":true,\"error\":" +
           json::quoted(out.reason) + "}";
  return "{\"ok\":true,\"id\":" + std::to_string(out.id) + "}";
}

bool writeAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t put = ::write(fd, data.data() + off, data.size() - off);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    off += std::size_t(put);
  }
  return true;
}

}  // namespace

std::string recordToJson(const JobRecord& rec) {
  std::ostringstream os;
  os << "{\"id\":" << rec.id
     << ",\"state\":" << json::quoted(stateName(rec.state))
     << ",\"family\":" << json::quoted(familyName(rec.spec.family))
     << ",\"cacheHit\":" << (rec.cacheHit ? "true" : "false")
     << ",\"cacheKey\":" << json::quoted(rec.cacheKeyHex)
     << ",\"violations\":" << rec.violations << ",\"lints\":" << rec.lints
     << ",\"worker\":" << rec.worker
     << ",\"turnaroundMs\":" << json::number(rec.turnaroundMs)
     << ",\"error\":" << json::quoted(rec.error) << ",\"result\":"
     << (rec.resultJson.empty() ? std::string("null") : rec.resultJson)
     << ",\"spec\":" << specToJson(rec.spec) << "}";
  return os.str();
}

ProtocolResult handleLine(JobServer& server, const std::string& line) {
  try {
    json::Value req = json::parse(line, "request");
    const std::string& op =
        json::asString(json::field(req, "op", "request.op"), "request.op");
    if (op == "submit") return {handleSubmit(server, req), false};
    if (op == "poll") {
      auto rec = server.poll(requestId(req));
      if (!rec) return {errorResponse("unknown job id"), false};
      return {"{\"ok\":true,\"job\":" + recordToJson(*rec) + "}", false};
    }
    if (op == "wait") {
      JobRecord rec = server.wait(requestId(req));
      return {"{\"ok\":true,\"job\":" + recordToJson(rec) + "}", false};
    }
    if (op == "cancel") {
      bool cancelled = server.cancel(requestId(req));
      return {std::string("{\"ok\":true,\"cancelled\":") +
                  (cancelled ? "true" : "false") + "}",
              false};
    }
    if (op == "status")
      return {"{\"ok\":true,\"status\":" + server.statusz() + "}", false};
    if (op == "shutdown") return {"{\"ok\":true,\"shutdown\":true}", true};
    return {errorResponse("unknown op \"" + op + "\""), false};
  } catch (const std::exception& e) {
    return {errorResponse(e.what()), false};
  }
}

LineReader::Status LineReader::next(std::string& line) {
  for (;;) {
    std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      const bool tooLong = discarding_ || nl > kMaxLineBytes;
      if (!tooLong) line.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      discarding_ = false;
      return tooLong ? Status::kTooLong : Status::kLine;
    }
    if (buffer_.size() > kMaxLineBytes) {
      // No terminator within the cap: drop what we hold and skip the rest
      // of the line as it arrives.
      discarding_ = true;
      buffer_.clear();
    }
    scanned_ = buffer_.size();
    char chunk[4096];
    ssize_t got = ::read(fd_, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      const bool tooLong = discarding_;
      discarding_ = false;
      scanned_ = 0;
      if (tooLong) return Status::kTooLong;
      if (buffer_.empty()) return Status::kEof;
      line = std::move(buffer_);  // final unterminated line
      buffer_.clear();
      return Status::kLine;
    }
    buffer_.append(chunk, std::size_t(got));
  }
}

bool serveSession(JobServer& server, int inFd, int outFd) {
  LineReader reader(inFd);
  std::string line;
  for (;;) {
    ProtocolResult result;
    switch (reader.next(line)) {
      case LineReader::Status::kEof:
        return false;
      case LineReader::Status::kTooLong:
        result.response = errorResponse(
            "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes");
        break;
      case LineReader::Status::kLine:
        if (line.empty()) continue;
        result = handleLine(server, line);
        break;
    }
    if (!writeAll(outFd, result.response + "\n")) return false;
    if (result.shutdown) return true;
  }
}

}  // namespace anton::serve
