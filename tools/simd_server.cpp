// simd_server: the simulation-service daemon (DESIGN.md §9).
//
// Hosts a serve::JobServer and speaks the line-delimited JSON protocol over
// one of two transports:
//
//   --socket PATH   AF_UNIX stream listener, one thread per connection
//   --stdio         stdin/stdout (single session; handy for tests and CI)
//
// Every request line gets exactly one response line. A malformed request,
// or one longer than serve::kMaxLineBytes, answers {"ok":false,...} and the
// daemon stays up; only {"op":"shutdown"} (or EOF in --stdio mode) takes it
// down, after running jobs finish.
//
// Usage:
//   simd_server --socket /tmp/simd.sock [--workers N] [--queue N]
//   simd_server --stdio [--workers N] [--queue N]

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using anton::serve::JobServer;
using anton::serve::serveSession;
using anton::serve::ServerConfig;

/// Thread-safe errno rendering (std::strerror is not).
std::string errnoStr() {
  return std::generic_category().message(errno);
}

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int runStdio(JobServer& server) {
  serveSession(server, STDIN_FILENO, STDOUT_FILENO);
  server.shutdown();
  return 0;
}

int runSocket(JobServer& server, const std::string& path) {
  int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd < 0) {
    std::cerr << "simd_server: socket: " << errnoStr() << "\n";
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    std::cerr << "simd_server: socket path too long: " << path << "\n";
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listenFd, 16) < 0) {
    std::cerr << "simd_server: bind/listen " << path << ": " << errnoStr()
              << "\n";
    ::close(listenFd);
    return 1;
  }
  std::cout << "simd_server: listening on " << path << "\n" << std::flush;

  std::atomic<bool> stopping{false};
  std::vector<std::thread> sessions;
  for (;;) {
    int conn = ::accept(listenFd, nullptr, nullptr);
    if (conn < 0) {
      if (stopping.load()) break;
      if (errno == EINTR) continue;
      std::cerr << "simd_server: accept: " << errnoStr() << "\n";
      break;
    }
    sessions.emplace_back([&server, &stopping, listenFd, conn] {
      if (serveSession(server, conn, conn)) {
        // Unblock the accept loop; the daemon drains and exits.
        stopping.store(true);
        ::shutdown(listenFd, SHUT_RDWR);
      }
      ::close(conn);
    });
  }
  for (std::thread& t : sessions) t.join();
  ::close(listenFd);
  ::unlink(path.c_str());
  server.shutdown();
  std::cout << "simd_server: shut down\n" << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  ServerConfig cfg;
  std::string socketPath;
  bool stdio = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--socket") {
      socketPath = value();
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--workers") {
      cfg.workers = std::stoi(value());
    } else if (arg == "--queue") {
      cfg.queueCapacity = std::size_t(std::stoul(value()));
    } else {
      throw UsageError("unknown flag " + arg);
    }
  }
  if (stdio == !socketPath.empty())
    throw UsageError("pass exactly one of --socket PATH, --stdio");

  JobServer server(cfg);
  return stdio ? runStdio(server) : runSocket(server, socketPath);
} catch (const UsageError& e) {
  std::cerr << "simd_server: " << e.what() << "\n"
            << "usage: simd_server (--socket PATH | --stdio)"
               " [--workers N] [--queue N]\n";
  return 2;
}
