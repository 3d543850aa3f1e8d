#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>

#include "data/dataset.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"

namespace kreg::serve {

/// Everything the daemon does minus the sockets: a scheduler, a dataset
/// registry keyed by (dgp, n, seed), and the request-line dispatch. Tests
/// and the bench's in-process mode drive this directly, so the whole
/// request → job → outcome → response path is covered without a socket.
class ServeContext {
 public:
  explicit ServeContext(SchedulerConfig config);

  Scheduler& scheduler() noexcept { return scheduler_; }

  /// The shared dataset handle for (dgp, n, seed), generated on first use.
  /// Sharing the handle across requests is what makes repeat requests
  /// co-schedulable (the grouping predicate compares handles) and keeps
  /// the registry's memory linear in the number of distinct datasets.
  /// Throws std::invalid_argument for an unknown dgp name.
  std::shared_ptr<const data::Dataset> dataset(const std::string& dgp,
                                               std::size_t n,
                                               std::uint64_t seed);

  /// Materializes a select request into a submittable plan: resolves the
  /// dataset, builds the grid (the request's lo:hi:count range, or the
  /// library default for the dataset when unset).
  SelectionJob job_from_request(const Request& request);

  /// Executes one request line end to end and returns the response line
  /// (without trailing newline). Never throws — parse and build errors
  /// come back as "error ..." responses. Sets *shutdown on the shutdown
  /// verb. Select requests block until the scheduler delivers the outcome,
  /// so concurrency comes from concurrent callers (one per connection).
  std::string handle_line(std::string_view line, bool* shutdown);

 private:
  Scheduler scheduler_;
  std::mutex mutex_;
  std::map<std::tuple<std::string, std::size_t, std::uint64_t>,
           std::shared_ptr<const data::Dataset>>
      datasets_;
};

struct ServerConfig {
  std::string socket_path;
  SchedulerConfig scheduler;
};

/// The kreg_serve daemon: a line-protocol server on a UNIX-domain stream
/// socket, one handler thread per connection, all submissions funneled
/// into the shared ServeContext scheduler.
class Server {
 public:
  /// Validates the socket path and binds + listens (replacing a stale
  /// socket file). Throws std::runtime_error on socket errors.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept loop; returns after a client sends "shutdown" (or stop() is
  /// called from another thread). Joins finished connection handlers as it
  /// goes, and every handler before returning.
  void run();

  /// Asks a running accept loop to exit and shuts down the read side of
  /// every open connection, so idle clients do not hold up run(); replies
  /// already being computed are still sent. Safe from any thread.
  void stop();

  const std::string& socket_path() const noexcept {
    return config_.socket_path;
  }
  ServeContext& context() noexcept { return context_; }

 private:
  /// One client connection and its handler thread.
  struct Connection {
    int fd = -1;
    bool done = false;  ///< handler finished; fd is being closed
    std::thread thread;
  };

  void handle_connection(int fd);
  /// Joins the finished handlers, or with `all` every handler (after
  /// stop(), each one reads EOF and finishes).
  void join_connections(bool all);

  ServerConfig config_;
  ServeContext context_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex threads_mutex_;
  std::list<Connection> connections_;  ///< guarded by threads_mutex_
};

}  // namespace kreg::serve
