#include "service/server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "util/logging.hpp"

namespace mfv::service {

namespace {

bool transient_accept_errno(int err) {
  // Per-process/system fd exhaustion, a connection that died between
  // SYN and accept, and kernel memory pressure all clear on their own;
  // none of them means the listen socket is broken.
  return err == EMFILE || err == ENFILE || err == ECONNABORTED ||
         err == ENOBUFS || err == ENOMEM;
}

}  // namespace

Server::Connection::~Connection() { ::close(fd); }

Server::Server(VerificationService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

Server::~Server() { stop(); }

util::Status Server::start() {
  if (listen_fd_ >= 0) return util::failed_precondition("server already started");

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path))
      return util::invalid_argument("unix socket path too long: " + options_.unix_path);
    std::strncpy(addr.sun_path, options_.unix_path.c_str(), sizeof(addr.sun_path) - 1);

    // Probe before touching the path: a live daemon is answering there iff
    // connect succeeds, and it must not be evicted by a newcomer. Only a
    // refused connection proves the file is a leftover from a crashed run,
    // which is the one case where unlinking is reclamation, not theft.
    int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      if (::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        ::close(probe);
        return util::already_exists("unix socket " + options_.unix_path +
                                    " has a live listener (another daemon is "
                                    "serving it); pick a different --socket");
      }
      const int probe_errno = errno;
      ::close(probe);
      if (probe_errno != ENOENT) {
        MFV_LOG(kInfo, "server") << "reclaiming stale socket " << options_.unix_path;
        ::unlink(options_.unix_path.c_str());
      }
    }

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
      return util::internal_error(std::string("socket: ") + std::strerror(errno));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      util::Status status =
          util::internal_error("bind " + options_.unix_path + ": " + std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
      return util::internal_error(std::string("socket: ") + std::strerror(errno));
    int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never exposed beyond localhost
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      util::Status status = util::internal_error("bind 127.0.0.1:" +
                                                 std::to_string(options_.tcp_port) + ": " +
                                                 std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    sockaddr_in bound{};
    socklen_t bound_size = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_size);
    port_ = ntohs(bound.sin_port);
  }

  if (::listen(listen_fd_, 64) < 0) {
    util::Status status = util::internal_error(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  stopping_.store(false);
  // The accept thread gets its own copy of the descriptor: stop() resets
  // listen_fd_ while that thread may still be inside accept().
  accept_thread_ = std::thread([this, listen_fd = listen_fd_] { accept_loop(listen_fd); });
  MFV_LOG(kInfo, "server") << "listening on "
                           << (options_.unix_path.empty()
                                   ? "127.0.0.1:" + std::to_string(port_)
                                   : options_.unix_path);
  return util::Status::ok_status();
}

void Server::accept_loop(int listen_fd) {
  obs::Counter& retries_counter = service_.metrics().counter("server_accept_retries");
  int backoff_ms = 1;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      reap_finished_locked();
    }
    int fd = options_.accept_fn ? options_.accept_fn(listen_fd)
                                : ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!stopping_.load() && transient_accept_errno(errno)) {
        accept_retries_.fetch_add(1, std::memory_order_relaxed);
        retries_counter.add(1);
        MFV_LOG(kWarn, "server")
            << "accept failed transiently (" << std::strerror(errno)
            << "); retrying in " << backoff_ms << "ms";
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, 100);
        continue;
      }
      return;  // listen socket closed (stop) or unrecoverable
    }
    backoff_ms = 1;
    if (stopping_.load()) {
      ::close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_shared<Connection>(fd);
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.push_back(connection);
    Worker worker;
    worker.done = done;
    worker.thread =
        std::thread([this, connection = std::move(connection), done]() mutable {
          serve_connection(std::move(connection));
          // Last action: flag for the reaper. Anything after this store
          // would race the join.
          done->store(true, std::memory_order_release);
        });
    workers_.push_back(std::move(worker));
  }
}

void Server::reap_finished_locked() {
  for (size_t i = 0; i < workers_.size();) {
    if (workers_[i].done->load(std::memory_order_acquire)) {
      workers_[i].thread.join();
      workers_[i] = std::move(workers_.back());
      workers_.pop_back();
    } else {
      ++i;
    }
  }
  std::erase_if(connections_,
                [](const std::weak_ptr<Connection>& weak) { return weak.expired(); });
}

size_t Server::live_connection_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

size_t Server::tracked_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t live = 0;
  for (const std::weak_ptr<Connection>& weak : connections_)
    if (!weak.expired()) ++live;
  return live;
}

void Server::serve_connection(std::shared_ptr<Connection> connection) {
  std::string payload;
  for (;;) {
    util::Status status = read_frame(connection->fd, payload);
    if (!status.ok()) {
      if (status.code() != util::StatusCode::kUnavailable) {
        MFV_LOG(kDebug, "server") << "connection dropped: " << status.to_string();
      }
      return;
    }

    util::Result<Request> request = decode_request(payload);
    if (!request.ok()) {
      // Malformed payload: answer (id 0 — we could not parse theirs) and
      // keep the connection; framing is still intact.
      Response response = Response::failure(0, request.status());
      std::lock_guard<std::mutex> lock(connection->write_mutex);
      if (!write_frame(connection->fd, response.to_json().dump()).ok()) return;
      continue;
    }

    // The callback owns a reference to the connection, so a response that
    // completes after this reader exits still has a live fd to write to.
    service_.submit(std::move(*request), [connection](Response response) {
      std::string frame = response.to_json().dump();
      std::lock_guard<std::mutex> lock(connection->write_mutex);
      util::Status write_status = write_frame(connection->fd, frame);
      if (!write_status.ok()) {
        MFV_LOG(kDebug, "server") << "response dropped: " << write_status.to_string();
      }
    });
  }
}

void Server::stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);

  // 1. No new connections: shutting the listen socket down pops accept().
  // It is closed only after the accept thread is gone, so that thread
  // never calls accept() on a closed (or reused) descriptor number.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Drain: everything already admitted executes and its response is
  // written to the still-open client sockets.
  service_.drain();

  // 3. Unblock the per-connection readers and join them.
  std::vector<Worker> workers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::weak_ptr<Connection>& weak : connections_)
      if (std::shared_ptr<Connection> connection = weak.lock())
        ::shutdown(connection->fd, SHUT_RDWR);
    workers.swap(workers_);
    connections_.clear();
  }
  for (Worker& worker : workers) worker.thread.join();

  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

}  // namespace mfv::service
