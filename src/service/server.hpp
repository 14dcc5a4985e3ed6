// Socket front end of the verification service (the mfvd daemon's core).
//
// Listens on a unix-domain socket (preferred for local use) or loopback
// TCP, accepts connections on a dedicated thread, and runs one reader
// thread per connection. Each decoded request is submitted to the
// service's broker; the completion callback writes the response frame
// under a per-connection write mutex, so pipelined requests from one
// client interleave correctly (responses may arrive out of order —
// clients match on the echoed request id).
//
// Daemon-lifetime hardening (the properties a fleet member must hold):
//
//  * Transient accept() failures — EMFILE/ENFILE fd exhaustion,
//    ECONNABORTED, ENOBUFS/ENOMEM — are retried with capped exponential
//    backoff and counted in `server_accept_retries`, not treated as
//    shutdown. A daemon that sheds one fd-pressure spike by silently
//    exiting its accept loop looks alive (process up, socket bound) while
//    refusing every future client; only stop() or an unrecoverable error
//    ends the loop.
//
//  * Finished connection threads are reaped as connections close (each
//    accept iteration and on stop), so a long-lived daemon serving
//    millions of short connections holds threads and registry slots
//    proportional to *live* connections, not to connections ever served.
//
//  * start() probe-connects the unix socket path before touching it: a
//    live daemon answering on the path fails the newcomer with
//    ALREADY_EXISTS, while a stale file from a crashed run (connect →
//    ECONNREFUSED) is unlinked and reclaimed. Blind unlink — the old
//    behavior — let a second daemon silently steal the path and orphan
//    the first.
//
// stop() is the graceful-drain sequence: stop accepting, drain the
// service (in-flight requests finish and their responses are delivered),
// then shut the connections down and join every thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"
#include "util/status.hpp"

namespace mfv::service {

struct ServerOptions {
  /// Non-empty = listen on this unix-domain socket path. A stale path is
  /// reclaimed on start; a path with a live listener fails start() with
  /// ALREADY_EXISTS. Unlinked on stop.
  std::string unix_path;
  /// Used when unix_path is empty: TCP on 127.0.0.1; 0 = ephemeral (read
  /// the bound port back with port()).
  uint16_t tcp_port = 0;
  /// Test seam for the accept(2) call: takes the listen fd, returns a
  /// client fd or -1 with errno set (deterministic fd-exhaustion tests
  /// inject EMFILE here). Null = real ::accept.
  std::function<int(int listen_fd)> accept_fn;
};

class Server {
 public:
  Server(VerificationService& service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept thread.
  util::Status start();

  /// Graceful shutdown; safe to call more than once.
  void stop();

  /// Bound TCP port (valid after start() in TCP mode).
  uint16_t port() const { return port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  size_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Transient accept() failures survived (also the
  /// `server_accept_retries` counter).
  uint64_t accept_retries() const {
    return accept_retries_.load(std::memory_order_relaxed);
  }
  /// Reader threads not yet reaped — bounded by live connections plus the
  /// finished-but-unreaped remainder, NOT by connections ever accepted.
  size_t live_connection_threads() const;
  /// Connection registry entries whose socket is still open.
  size_t tracked_connections() const;

 private:
  /// One client socket. The fd closes when the last reference drops, so
  /// a response callback still in flight after the reader exits writes
  /// to a valid descriptor (at worst a shut-down one).
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    int fd;
    std::mutex write_mutex;
  };

  /// A reader thread plus the flag it raises as its last action. The
  /// accept loop joins flagged workers — join-after-finished, so reaping
  /// never blocks the accept path behind a slow reader.
  struct Worker {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop(int listen_fd);
  void serve_connection(std::shared_ptr<Connection> connection);
  /// Joins finished workers and drops expired connection entries
  /// (caller holds mutex_).
  void reap_finished_locked();

  VerificationService& service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> connections_accepted_{0};
  std::atomic<uint64_t> accept_retries_{0};
  std::thread accept_thread_;

  mutable std::mutex mutex_;
  std::vector<Worker> workers_;
  std::vector<std::weak_ptr<Connection>> connections_;
};

}  // namespace mfv::service
