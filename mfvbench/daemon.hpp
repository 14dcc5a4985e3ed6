// An in-process mfv daemon (VerificationService behind a Server on a unix
// socket) and the client-side round trip the daemon workloads time.
#pragma once

#include <memory>
#include <string>

#include "bench.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace mfvbench {

class Daemon {
 public:
  /// Starts a service with `workers` broker threads and a store budget of
  /// `byte_budget` bytes, listening on a socket under the run's workdir.
  Daemon(RunContext& context, unsigned workers, size_t byte_budget, const std::string& tag);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool started() const { return started_; }
  mfv::service::VerificationService& service() { return *service_; }
  /// Connects one client; records a failure and returns an unconnected
  /// client when the socket refuses.
  mfv::service::Client connect(RunContext& context);

 private:
  std::unique_ptr<mfv::service::VerificationService> service_;
  std::unique_ptr<mfv::service::Server> server_;
  bool started_ = false;
};

mfv::service::Request make_request(uint64_t id, const char* verb);

struct Reply {
  /// Transport and status both OK.
  bool ok = false;
  mfv::service::Response response;
  double client_ms = 0.0;
  std::string error;
};

/// One round trip under a client-side span. While tracing it also
/// samples the reply's timing object (queue wait, converge, verify) and
/// the wire time left over (client latency - queue wait - total).
Reply call(RunContext& context, mfv::service::Client& client,
           const mfv::service::Request& request, const char* span, uint64_t op,
           uint64_t parent);

/// Store accounting after a daemon phase: evictions, charged bytes and
/// resident-memory growth per charged byte since `rss_before_mb`.
void sample_store(RunContext& context, Daemon& daemon, double rss_before_mb);

}  // namespace mfvbench
