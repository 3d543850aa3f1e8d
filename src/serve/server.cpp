#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/grid.hpp"
#include "core/knn_sweep.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"
#include "serve/knobs.hpp"

namespace kreg::serve {

namespace {

/// Default grid length when a select request names no range — matches the
/// CLI's default sweep resolution.
constexpr std::size_t kDefaultGridSize = 64;

std::vector<std::size_t> neighbor_grid_from_spec(const GridSpec& spec) {
  if (spec.lo < 1.0 || spec.hi < spec.lo) {
    throw std::invalid_argument(
        "job_from_request: knn grid range must satisfy 1 <= lo <= hi");
  }
  std::vector<std::size_t> grid;
  grid.reserve(spec.count);
  for (std::size_t i = 0; i < spec.count; ++i) {
    const double t =
        spec.count == 1
            ? spec.hi
            : spec.lo + (spec.hi - spec.lo) * static_cast<double>(i) /
                            static_cast<double>(spec.count - 1);
    const auto k = static_cast<std::size_t>(std::llround(t));
    if (grid.empty() || k > grid.back()) {
      grid.push_back(k);  // collapse rounding duplicates, stay ascending
    }
  }
  return grid;
}

}  // namespace

ServeContext::ServeContext(SchedulerConfig config)
    : scheduler_(std::move(config)) {}

std::shared_ptr<const data::Dataset> ServeContext::dataset(
    const std::string& dgp, std::size_t n, std::uint64_t seed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto key = std::make_tuple(dgp, n, seed);
  if (const auto it = datasets_.find(key); it != datasets_.end()) {
    return it->second;
  }
  const data::NamedDgp* entry = nullptr;
  for (const data::NamedDgp& candidate : data::all_dgps()) {
    if (candidate.name == dgp) {
      entry = &candidate;
      break;
    }
  }
  if (entry == nullptr) {
    std::string valid;
    for (const data::NamedDgp& candidate : data::all_dgps()) {
      if (!valid.empty()) {
        valid += ", ";
      }
      valid += candidate.name;
    }
    throw std::invalid_argument("unknown dgp '" + dgp + "' (expected one of " +
                                valid + ")");
  }
  rng::Stream stream(seed);
  auto data =
      std::make_shared<const data::Dataset>(entry->generate(n, stream));
  datasets_.emplace(key, data);
  return data;
}

SelectionJob ServeContext::job_from_request(const Request& request) {
  SelectionJob job;
  job.data = dataset(request.dgp, request.n, request.seed);
  job.estimator = request.estimator;
  job.kernel = request.kernel;
  job.precision = request.precision;
  job.backend = request.backend;
  job.lane_width = request.lane_width;
  job.stream.memory_budget_bytes = request.budget_bytes;
  if (request.estimator == EstimatorKind::kKnn) {
    job.neighbor_grid = request.grid.set
                            ? neighbor_grid_from_spec(request.grid)
                            : default_neighbor_grid(job.data->size());
  } else {
    job.bandwidth_grid =
        request.grid.set
            ? BandwidthGrid(request.grid.lo, request.grid.hi,
                            request.grid.count)
                  .values()
            : BandwidthGrid::default_for(*job.data, kDefaultGridSize).values();
  }
  return job;
}

std::string ServeContext::handle_line(std::string_view line, bool* shutdown) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    return format_error(e.what());
  }
  switch (request.kind) {
    case RequestKind::kPing:
      return "ok pong";
    case RequestKind::kStats:
      return format_stats(scheduler_.stats(), scheduler_.cache_stats());
    case RequestKind::kShutdown:
      if (shutdown != nullptr) {
        *shutdown = true;
      }
      return "ok shutting down";
    case RequestKind::kSelect:
      break;
  }
  SelectionJob job;
  try {
    job = job_from_request(request);
  } catch (const std::exception& e) {
    return format_error(e.what());
  }
  return format_outcome(scheduler_.submit(std::move(job)).get());
}

namespace {

/// Writes `response` plus its newline in full. MSG_NOSIGNAL turns a peer
/// that hung up before its reply into an EPIPE for this connection instead
/// of a SIGPIPE that would kill the daemon. False when the peer is gone.
bool send_line(int fd, std::string response) {
  response.push_back('\n');
  std::size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t wrote = ::send(fd, response.data() + sent,
                                 response.size() - sent, MSG_NOSIGNAL);
    if (wrote < 0 && errno == EINTR) {
      continue;
    }
    if (wrote <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), context_(config_.scheduler) {
  validate_socket_path(config_.socket_path);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(config_.socket_path.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind(" + config_.socket_path +
                             "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    throw std::runtime_error(std::string("listen: ") + std::strerror(err));
  }
}

Server::~Server() {
  stop();
  {
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    for (std::thread& thread : threads_) {
      if (thread.joinable()) {
        thread.join();
      }
    }
    threads_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
}

void Server::stop() {
  if (!stopping_.exchange(true) && listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // breaks the blocking accept
  }
}

void Server::run() {
  context_.scheduler().start_pump();
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load() || (errno != EINTR && errno != ECONNABORTED)) {
        break;
      }
      continue;
    }
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
  {
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    for (std::thread& thread : threads_) {
      if (thread.joinable()) {
        thread.join();
      }
    }
    threads_.clear();
  }
  context_.scheduler().stop_pump();
}

void Server::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got <= 0) {
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
    std::size_t newline = 0;
    while ((newline = buffer.find('\n')) != std::string::npos &&
           newline <= kMaxRequestLineBytes) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      bool shutdown = false;
      if (!send_line(fd, context_.handle_line(line, &shutdown))) {
        ::close(fd);
        return;
      }
      if (shutdown) {
        ::close(fd);
        stop();
        return;
      }
    }
    if (buffer.size() > kMaxRequestLineBytes) {
      // No valid request comes near the cap; refuse to buffer more of it.
      (void)send_line(fd, format_error("request line exceeds " +
                                       std::to_string(kMaxRequestLineBytes) +
                                       " bytes"));
      break;
    }
  }
  ::close(fd);
}

}  // namespace kreg::serve
