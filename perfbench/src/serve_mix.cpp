// The serving workload: the benchmark starts kreg_serve with its default
// settings and drives it over its UNIX socket with four closed-loop
// connections running a request script generated from the seed.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/job.hpp"
#include "layers.hpp"
#include "perfbench.hpp"
#include "rng/splitmix64.hpp"
#include "serve/knobs.hpp"
#include "serve/profile_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kDatasets = 8;
constexpr std::size_t kSampleN = 2048;
/// Fresh steps per (dataset, estimator) block of the script.
constexpr std::size_t kBlock = 8;
constexpr const char* kEstimators[] = {"nw", "knn", "oscv"};
/// Daemon set-ups timed per untraced run (setup_s is their median): the
/// kSegments daemons that serve the timed segments and extra ones before
/// them, since one set-up is short and noisy.
constexpr std::size_t kSetups = 15;
/// Fresh requests per (estimator, backend) checked against a direct run_job.
constexpr std::size_t kRunJobChecks = 2;
/// Distinct jobs re-run after a traced run's timed phases: the first two
/// fresh steps of each of the first kServiceBlocks blocks on every
/// connection — both datasets of every estimator, on both backends.
constexpr std::size_t kServiceBlocks = 6;
constexpr std::size_t kServiceStepsPerBlock = 2;
/// Fresh steps per connection whose cache keys a traced run times.
constexpr std::size_t kKeySamples = 256;
constexpr std::size_t kProbeSamples = 8;

/// The request script, a pure function of (seed, connection, index):
///  - 8 shared paper-DGP datasets at n = 2,048, visited in lockstep: fresh
///    steps come in blocks of kBlock, and block b of every connection uses
///    dataset b mod 8 and estimator b mod 3 (nw, knn, oscv), so concurrent
///    connections submit co-schedulable jobs;
///  - 1 in 4 fresh steps per connection uses backend=tiled, the rest
///    backend=device;
///  - explicit grids of 24..32 points whose first value is unique to the
///    (connection, step) pair, so every fresh request has its own cache key;
///  - every fourth request (index ≡ 3 mod 4) repeats the line of an earlier
///    fresh step of the same connection, chosen by the seed, so it hits.
class Script {
 public:
  struct Line {
    std::string text;
    bool repeat = false;
    std::size_t fresh = 0;      ///< the fresh step whose line this is
    std::size_t estimator = 0;  ///< index into kEstimators
    bool tiled = false;
  };

  explicit Script(std::uint64_t seed) : seed_(seed) {
    kreg::rng::SplitMix64 seeds(seed ^ 0x5e12e5c21b7ULL);
    for (auto& s : dataset_seeds_) {
      s = seeds();
    }
  }

  Line line(std::size_t connection, std::size_t index) const {
    const std::size_t fresh_before = index - index / 4;
    if (index % 4 != 3) {
      return fresh_line(connection, fresh_before);
    }
    kreg::rng::SplitMix64 pick(seed_ ^ (std::uint64_t{connection} << 40) ^
                               index);
    Line line = fresh_line(connection, pick() % fresh_before);
    line.repeat = true;
    return line;
  }

  Line fresh_line(std::size_t connection, std::size_t step) const {
    const std::size_t u = step * kConnections + connection;
    Line line;
    const std::size_t block = step / kBlock;
    line.fresh = step;
    line.estimator = block % 3;
    line.tiled = (step + connection) % 4 == 3;
    const std::size_t count = 24 + (u * 7 + seed_) % 9;
    char grid[96];
    if (line.estimator == 1) {  // knn: neighbour counts
      std::snprintf(grid, sizeof(grid), "%zu:%zu:%zu", 8 + u % 64,
                    384 + u / 64, count);
    } else {
      std::snprintf(grid, sizeof(grid), "%.17g:%.17g:%zu",
                    0.05 + 1e-6 * static_cast<double>(u),
                    line.estimator == 0 ? 0.6 : 0.5, count);
    }
    line.text = "select estimator=" + std::string(kEstimators[line.estimator]) +
                " dgp=paper n=" + std::to_string(kSampleN) +
                " seed=" + std::to_string(dataset_seeds_[block % kDatasets]) +
                " grid=" + grid +
                " backend=" + (line.tiled ? "tiled" : "device");
    return line;
  }

  /// The set-up's selections: one per dataset and estimator, which makes
  /// the daemon generate every dataset and runs every estimator path once
  /// before timing. Their grids start below every script grid, so their
  /// cache keys never occur in the script.
  std::vector<std::string> warm_lines() const {
    std::vector<std::string> lines;
    for (std::size_t d = 0; d < kDatasets; ++d) {
      for (std::size_t e = 0; e < 3; ++e) {
        lines.push_back(
            "select estimator=" + std::string(kEstimators[e]) +
            " dgp=paper n=" + std::to_string(kSampleN) +
            " seed=" + std::to_string(dataset_seeds_[d]) +
            (e == 1 ? " grid=4:384:24" : e == 0 ? " grid=0.04:0.6:24"
                                                : " grid=0.04:0.5:24") +
            " backend=" + (d % 4 == 3 ? "tiled" : "device"));
      }
    }
    return lines;
  }

 private:
  std::uint64_t seed_;
  std::array<std::uint64_t, kDatasets> dataset_seeds_{};
};

class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd_);
      throw std::runtime_error("connect(" + path + "): " + std::strerror(err));
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string roundtrip(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t wrote =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (wrote <= 0) {
        throw std::runtime_error("send failed");
      }
      sent += static_cast<std::size_t>(wrote);
    }
    std::size_t newline = 0;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got <= 0) {
        throw std::runtime_error("connection closed before the reply");
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
    std::string reply = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return reply;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A kreg_serve child process with default settings. Its socket lives in
/// the run directory and is addressed through the daemon's cwd link, which
/// keeps the path within sun_path's 107 characters wherever the checkout
/// sits.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& dir) {
    // The child changes directory before exec, so resolve the binary first.
    const std::string exe = std::filesystem::absolute(binary).string();
    const std::string log = dir + "/daemon.log";
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid_ == 0) {
      // Dies with the benchmark, even when the benchmark is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) {
        ::_exit(125);
      }
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (::chdir(dir.c_str()) != 0 || fd < 0) {
        ::_exit(126);
      }
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::execl(exe.c_str(), exe.c_str(), "--socket",
              "/proc/self/cwd/kreg.sock", static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const noexcept { return pid_; }
  std::string socket_path() const {
    return "/proc/" + std::to_string(pid_) + "/cwd/kreg.sock";
  }

  /// Connects once the daemon listens.
  std::unique_ptr<Connection> connect() const {
    const auto start = Clock::now();
    for (;;) {
      try {
        return std::make_unique<Connection>(socket_path());
      } catch (const std::runtime_error&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          throw std::runtime_error("kreg_serve exited during start-up");
        }
        if (seconds_since(start) > 30.0) {
          throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  /// Sends `shutdown` on a fresh connection (every client connection must
  /// be closed first: the daemon joins their threads before it exits) and
  /// waits for the exit. Returns false when the daemon had to be killed or
  /// exited nonzero.
  bool shutdown() {
    bool clean = true;
    try {
      const std::string reply = connect()->roundtrip("shutdown");
      clean = reply.rfind("ok", 0) == 0;
    } catch (const std::exception&) {
      clean = false;
    }
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 30.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        clean = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
};

/// "key=value" fields of an `ok ...` line.
std::map<std::string, std::string> fields(const std::string& reply) {
  std::map<std::string, std::string> out;
  std::istringstream in(reply);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      out[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return out;
}

std::map<std::string, double> stats_of(Connection& control) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : fields(control.roundtrip("stats"))) {
    out[key] = std::stod(value);
  }
  return out;
}

/// The part of a select reply that must repeat bit for bit: everything
/// but the job id and the cache flag.
std::string payload(const std::string& reply) {
  std::istringstream in(reply);
  std::string token;
  std::string out;
  while (in >> token) {
    if (token.rfind("id=", 0) != 0 && token.rfind("cache=", 0) != 0) {
      out += token + ' ';
    }
  }
  return out;
}

struct Sample {
  std::size_t connection = 0;
  std::size_t index = 0;
  Script::Line line;
  double latency_ms = 0.0;
  std::string reply;
};

struct Phase {
  std::vector<Sample> samples;  // per connection, in index order
  std::size_t dropped = 0;
  double wall_s = 0.0;
};

std::uint64_t request_id(std::size_t connection, std::size_t index) {
  return (std::uint64_t{connection + 1} << 32) | index;
}

/// One closed-loop phase: every connection sends its next script line only
/// after the previous reply, until `seconds` have passed; connections close
/// after their last reply.
Phase run_socket_phase(const Daemon& daemon, const Script& script,
                       std::array<std::size_t, kConnections>& next,
                       double seconds, Tracer* tracer) {
  std::vector<std::unique_ptr<Connection>> connections;
  for (std::size_t c = 0; c < kConnections; ++c) {
    connections.push_back(daemon.connect());
  }
  std::array<std::vector<Sample>, kConnections> per;
  std::array<std::size_t, kConnections> dropped{};
  std::array<Clock::time_point, kConnections> ends{};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ends[c] = start;
      while (seconds_since(start) < seconds) {
        Sample s;
        s.connection = c;
        s.index = next[c];
        s.line = script.line(c, s.index);
        const std::uint32_t span =
            tracer != nullptr
                ? tracer->begin("serve.request", 0, request_id(c, s.index))
                : 0;
        const auto t0 = Clock::now();
        try {
          s.reply = connections[c]->roundtrip(s.line.text);
        } catch (const std::exception&) {
          ++dropped[c];
          break;
        }
        ends[c] = Clock::now();
        if (tracer != nullptr) {
          tracer->end(span);
        }
        s.latency_ms = ms_between(t0, ends[c]);
        per[c].push_back(std::move(s));
        ++next[c];
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  connections.clear();
  Phase phase;
  auto end = start;
  for (std::size_t c = 0; c < kConnections; ++c) {
    end = std::max(end, ends[c]);
    phase.dropped += dropped[c];
    for (Sample& s : per[c]) {
      phase.samples.push_back(std::move(s));
    }
  }
  phase.wall_s = std::chrono::duration<double>(end - start).count();
  return phase;
}

/// The output checks of the serving workload. Every reply must be `ok`;
/// every repeat must equal the first reply for its key bit for bit; a
/// deterministic sample of misses per estimator × backend must equal a
/// direct run_job, the daemon's documented contract.
class ReplyCheck {
 public:
  explicit ReplyCheck(bool corrupt) : corrupt_(corrupt) {}

  /// Returns the number of samples that passed.
  std::size_t check(const Phase& phase, Result& result) {
    std::size_t passed = 0;
    for (const Sample& s : phase.samples) {
      const std::string where = "connection " + std::to_string(s.connection) +
                                " request " + std::to_string(s.index);
      if (s.reply.rfind("ok ", 0) != 0) {
        result.fail(where + ": " + s.reply);
        continue;
      }
      std::string body = payload(s.reply);
      if (corrupt_ && s.line.repeat) {
        body += "corrupted";
        corrupt_ = false;
      }
      const auto key = std::make_pair(s.connection, s.line.fresh);
      const auto [it, first] = first_.emplace(key, body);
      if (first && s.line.repeat) {
        result.fail(where + ": repeats a key never answered");
        continue;
      }
      if (!s.line.repeat && fields(s.reply)["cache"] == "hit") {
        ++fresh_hits_;
      }
      // A repeat, or a fresh line replayed by a later segment's daemon.
      if (!first && it->second != body) {
        result.fail(where + ": reply differs from the first reply for its "
                            "key");
        continue;
      }
      ++passed;
    }
    for (std::size_t i = 0; i < phase.dropped; ++i) {
      result.fail("request dropped: the connection failed");
    }
    return passed;
  }

  /// Runs the sampled misses through run_job on a private device.
  void check_run_job(const std::vector<Sample>& samples, Result& result) {
    kreg::serve::SchedulerConfig config;
    config.deterministic = true;
    config.record_events = false;
    kreg::serve::ServeContext context(config);
    std::map<std::pair<std::size_t, bool>, std::size_t> taken;
    std::vector<const Sample*> picked;
    for (const Sample& s : samples) {
      if (!s.line.repeat &&
          taken[{s.line.estimator, s.line.tiled}]++ < kRunJobChecks) {
        picked.push_back(&s);
      }
    }
    for (const Sample* s : picked) {
      const kreg::SelectionJob job = context.job_from_request(
          kreg::serve::parse_request(s->line.text));
      kreg::spmd::Device device;
      kreg::serve::JobOutcome outcome;
      outcome.ok = true;
      outcome.profile = kreg::run_job(job, kreg::JobContext{&device, nullptr});
      if (payload(kreg::serve::format_outcome(outcome)) != payload(s->reply)) {
        result.fail("connection " + std::to_string(s->connection) +
                    " request " + std::to_string(s->index) +
                    ": reply differs from a direct run_job");
      }
    }
    run_job_checked_ += picked.size();
  }

  const std::map<std::pair<std::size_t, std::size_t>, std::string>& first()
      const {
    return first_;
  }
  std::size_t fresh_hits() const { return fresh_hits_; }
  std::size_t run_job_checked() const { return run_job_checked_; }

 private:
  bool corrupt_;
  std::map<std::pair<std::size_t, std::size_t>, std::string> first_;
  std::size_t fresh_hits_ = 0;
  std::size_t run_job_checked_ = 0;
};

/// Daemon start: spawn → `ping` answered → dataset pool materialised (the
/// script's set-up selections answered).
/// Returns the seconds it took; the caller keeps the daemon.
double start_daemon(const Options& options, const Script& script,
                    std::unique_ptr<Daemon>& daemon, Result& result) {
  const auto t0 = Clock::now();
  daemon = std::make_unique<Daemon>(options.serve_binary, options.run_dir);
  const auto connection = daemon->connect();
  if (connection->roundtrip("ping") != "ok pong") {
    throw std::runtime_error("kreg_serve did not answer ping");
  }
  for (const std::string& line : script.warm_lines()) {
    const std::string reply = connection->roundtrip(line);
    if (reply.rfind("ok ", 0) != 0) {
      result.fail("set-up select failed: " + reply);
    }
  }
  return seconds_since(t0);
}

void stop_daemon(std::unique_ptr<Daemon>& daemon, Result& result) {
  if (!daemon->shutdown()) {
    result.fail("kreg_serve did not shut down cleanly");
  }
  daemon.reset();
}

void note_parameters(Result& result, const Options& options) {
  result.note(
      "workload",
      "{\"name\": \"serve-mix\", \"seed\": " + std::to_string(options.seed) +
          ", \"connections\": " + std::to_string(kConnections) +
          ", \"loop\": \"closed\", \"datasets\": " +
          std::to_string(kDatasets) + ", \"dgp\": \"paper\", \"n\": " +
          std::to_string(kSampleN) +
          ", \"estimators\": \"nw/knn/oscv cycled\", \"backends\": \"3/4 "
          "device, 1/4 tiled\", \"grid_points\": \"24..32, explicit\", "
          "\"repeat_share\": 0.25, \"daemon\": \"kreg_serve default "
          "settings\"}");
}

std::vector<double> latencies(const Phase& phase) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    out.push_back(s.latency_ms);
  }
  return out;
}

void dump_script(const Script& script) {
  for (const std::string& line : script.warm_lines()) {
    std::printf("warm %s\n", line.c_str());
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < 64; ++i) {
      std::printf("c%zu #%zu %s\n", c, i, script.line(c, i).text.c_str());
    }
  }
}

/// In-process pass of a traced run: the same script on four client threads
/// through the four public steps of ServeContext::handle_line, with a span
/// around each.
struct InProcess {
  std::vector<double> parse_us, build_us, wait_ms, format_us;
  /// Fresh jobs with their step, ordered by (step, connection).
  std::vector<std::pair<std::size_t, kreg::SelectionJob>> distinct_jobs;
  std::map<std::pair<std::size_t, std::size_t>, std::string> replies;
  double cpu_util = 0.0;
  std::size_t requests = 0;
};

InProcess run_in_process(const Script& script, double seconds,
                         Tracer& tracer) {
  kreg::serve::SchedulerConfig config;  // what kreg_serve's defaults resolve to
  config.workers =
      kreg::serve::resolve_worker_count(kreg::serve::kServeFromEnv, 0);
  config.cache_budget_bytes =
      kreg::serve::resolve_cache_budget(kreg::serve::kServeFromEnv);
  kreg::serve::ServeContext context(config);
  context.scheduler().start_pump();
  for (const std::string& line : script.warm_lines()) {
    (void)context.handle_line(line, nullptr);
  }
  struct PerThread {
    std::vector<double> parse_us, build_us, wait_ms, format_us;
    std::vector<std::pair<std::size_t, kreg::SelectionJob>> jobs;
    std::vector<std::pair<std::size_t, std::string>> replies;
  };
  std::array<PerThread, kConnections> per;
  const double cpu0 = self_cpu_seconds();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      PerThread& mine = per[c];
      for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
        const Script::Line line = script.line(c, i);
        const std::uint64_t id = request_id(c, i);
        const std::uint32_t root = tracer.begin("serve.handle_line", 0, id);
        std::uint32_t span = tracer.begin("serve.protocol.parse", root, id);
        const auto t0 = Clock::now();
        const kreg::serve::Request request =
            kreg::serve::parse_request(line.text);
        const auto t1 = Clock::now();
        tracer.end(span);
        span = tracer.begin("serve.context.build", root, id);
        kreg::SelectionJob job = context.job_from_request(request);
        const auto t2 = Clock::now();
        tracer.end(span);
        if (!line.repeat && line.fresh < kKeySamples) {
          mine.jobs.emplace_back(line.fresh, job);
        }
        span = tracer.begin("serve.scheduler.submit_wait", root, id);
        const auto t3 = Clock::now();
        const kreg::serve::JobOutcome outcome =
            context.scheduler().submit(std::move(job)).get();
        const auto t4 = Clock::now();
        tracer.end(span);
        span = tracer.begin("serve.protocol.format", root, id);
        const std::string reply = kreg::serve::format_outcome(outcome);
        const auto t5 = Clock::now();
        tracer.end(span);
        tracer.end(root);
        mine.parse_us.push_back(ms_between(t0, t1) * 1e3);
        mine.build_us.push_back(ms_between(t1, t2) * 1e3);
        mine.wait_ms.push_back(ms_between(t3, t4));
        mine.format_us.push_back(ms_between(t4, t5) * 1e3);
        if (!line.repeat) {
          mine.replies.emplace_back(line.fresh, reply);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  InProcess out;
  out.cpu_util = (self_cpu_seconds() - cpu0) /
                 (seconds_since(start) * static_cast<double>(cpu_count()));
  context.scheduler().stop_pump();
  std::map<std::pair<std::size_t, std::size_t>, kreg::SelectionJob> ordered;
  for (std::size_t c = 0; c < kConnections; ++c) {
    PerThread& mine = per[c];
    out.requests += mine.wait_ms.size();
    out.parse_us.insert(out.parse_us.end(), mine.parse_us.begin(),
                        mine.parse_us.end());
    out.build_us.insert(out.build_us.end(), mine.build_us.begin(),
                        mine.build_us.end());
    out.wait_ms.insert(out.wait_ms.end(), mine.wait_ms.begin(),
                       mine.wait_ms.end());
    out.format_us.insert(out.format_us.end(), mine.format_us.begin(),
                         mine.format_us.end());
    for (auto& [fresh, job] : mine.jobs) {
      ordered.emplace(std::make_pair(fresh, c), std::move(job));
    }
    for (auto& [fresh, reply] : mine.replies) {
      out.replies.emplace(std::make_pair(c, fresh), std::move(reply));
    }
  }
  for (auto& [key, job] : ordered) {
    out.distinct_jobs.emplace_back(key.first, std::move(job));
  }
  return out;
}

/// The traced run: an untraced and a traced socket third, each on a fresh
/// daemon replaying the script from its start, so both send the same
/// requests against the same cache state and their rates differ by the
/// tracing alone; then the in-process pass and the per-job service times.
void run_traced(const Options& options, const Script& script,
                Result& result) {
  ReplyCheck check(options.corrupt);
  const double third = options.seconds / 3;
  std::unique_ptr<Daemon> daemon;
  (void)start_daemon(options, script, daemon, result);
  std::array<std::size_t, kConnections> next{};
  const Phase plain = run_socket_phase(*daemon, script, next, third, nullptr);
  stop_daemon(daemon, result);

  Tracer tracer;
  (void)start_daemon(options, script, daemon, result);
  next = {};
  auto control = daemon->connect();
  const auto before = stats_of(*control);
  const double cpu0 = proc_cpu_seconds(daemon->pid());
  const Phase traced = run_socket_phase(*daemon, script, next, third, &tracer);
  const double cpu1 = proc_cpu_seconds(daemon->pid());
  const auto after = stats_of(*control);
  control.reset();
  stop_daemon(daemon, result);
  result.attempted += plain.samples.size() + plain.dropped +
                      traced.samples.size() + traced.dropped;
  (void)check.check(plain, result);
  (void)check.check(traced, result);
  check.check_run_job(traced.samples, result);

  InProcess pass = run_in_process(script, third, tracer);
  std::size_t compared = 0;
  for (const auto& [key, reply] : pass.replies) {
    const auto it = check.first().find(key);
    if (it != check.first().end()) {
      ++compared;
      if (payload(reply) != it->second) {
        result.fail("in-process reply for connection " +
                    std::to_string(key.first) + " step " +
                    std::to_string(key.second) + " differs from the daemon's");
      }
    }
  }

  // Service time and per-job layer counts, on a private device, after the
  // timed phases.
  std::vector<double> key_us;
  for (const auto& [step, job] : pass.distinct_jobs) {
    const auto t0 = Clock::now();
    const kreg::serve::CacheKey key = kreg::serve::cache_key(job);
    key_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    if (key.n != job.data->size()) {
      throw std::runtime_error("cache_key: wrong n");
    }
  }
  LayerSamples layers;
  std::vector<double> run_ms;
  kreg::spmd::Device device;
  std::size_t probes = 0;
  for (std::size_t j = 0; j < pass.distinct_jobs.size(); ++j) {
    const auto& [step, job] = pass.distinct_jobs[j];
    if (step % kBlock >= kServiceStepsPerBlock ||
        step >= kServiceBlocks * kBlock) {
      continue;
    }
    const bool on_device = job.backend == kreg::JobBackend::kDevice;
    const bool nw = job.estimator == kreg::EstimatorKind::kNadarayaWatson;
    const kreg::spmd::LaunchStats stats0 = device.stats();
    const std::uint32_t span =
        tracer.begin("core.job.run_job", 0, 2'000'000 + j);
    const auto t0 = Clock::now();
    (void)kreg::run_job(job, kreg::JobContext{&device, nullptr});
    const double ms = ms_between(t0, Clock::now());
    tracer.end(span);
    run_ms.push_back(ms);
    if (on_device) {
      layers.launches.push_back(launch_delta(stats0, device.stats()));
    }
    if (on_device && nw) {
      layers.select_ms.push_back(ms);
      if (probes++ < kProbeSamples) {
        probe_layers(*job.data,
                     kreg::BandwidthGrid::from_values(job.bandwidth_grid),
                     job.precision, tracer, 3'000'000 + j, layers);
      }
    }
  }
  layers.global_peak_bytes = device.global_peak();
  layers.cpu_util = pass.cpu_util;
  report_layers(result, layers);

  const auto delta = [&](const char* key) {
    return after.at(key) - before.at(key);
  };
  const std::size_t traced_n = traced.samples.size();
  result.metric("serve.scheduler.jobs_per_wave",
                delta("submitted") / delta("waves"), "jobs/wave", traced_n);
  result.metric("serve.scheduler.launches_per_miss",
                delta("launches") / delta("cache_misses"), "launches/miss",
                traced_n);
  result.metric("serve.scheduler.co_scheduled", delta("co_scheduled"), "count",
                traced_n);
  result.metric("serve.scheduler.coalesced", delta("coalesced"), "count",
                traced_n);
  result.metric("serve.scheduler.deferrals", delta("deferrals"), "count",
                traced_n);
  result.metric("serve.cache.hit_ratio",
                delta("cache_hits") / delta("submitted"), "ratio", traced_n);
  result.metric("serve.cache.evictions", delta("evictions"), "count",
                traced_n);
  result.metric("serve.server.cpu_util",
                (cpu1 - cpu0) / (traced.wall_s *
                                 static_cast<double>(cpu_count())),
                "ratio", traced_n);
  result.metric("serve.protocol.parse_us", median(pass.parse_us), "us",
                pass.requests);
  result.metric("serve.context.build_us", median(pass.build_us), "us",
                pass.requests);
  const double wait_p50 = median(pass.wait_ms);
  result.metric("serve.scheduler.wait_p50_ms", wait_p50, "ms", pass.requests);
  result.metric("serve.scheduler.wait_p99_ms", quantile(pass.wait_ms, 0.99),
                "ms", pass.requests);
  result.metric("serve.protocol.format_us", median(pass.format_us), "us",
                pass.requests);
  result.metric("serve.cache.key_us", median(key_us), "us", key_us.size());
  result.metric("core.job.run_ms", median(run_ms), "ms", run_ms.size());
  result.metric("serve.scheduler.queue_ms", wait_p50 - median(run_ms), "ms",
                pass.requests);

  const double plain_rate =
      static_cast<double>(plain.samples.size()) / plain.wall_s;
  const double traced_rate = static_cast<double>(traced_n) / traced.wall_s;
  result.metric("trace.untraced_selections_per_s", plain_rate, "1/s",
                plain.samples.size());
  result.metric("trace.traced_selections_per_s", traced_rate, "1/s",
                traced_n);
  result.metric("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0,
                "%", traced_n);

  result.note("in_process_replies_compared", static_cast<double>(compared));
  result.note("run_job_checked", static_cast<double>(check.run_job_checked()));
  const std::string spans = options.run_dir + "/spans-serve-mix-" +
                            std::to_string(options.seed) + ".json";
  if (!tracer.write(spans)) {
    throw std::runtime_error("cannot write " + spans);
  }
  result.note("spans", "{\"file\": " + json_string(spans) +
                           ", \"count\": " + std::to_string(tracer.size()) +
                           "}");
}

}  // namespace

Result run_serve_mix(const Options& options) {
  const Script script(options.seed);
  Result result;
  if (options.dump_inputs) {
    dump_script(script);
    return result;
  }
  if (options.serve_binary.empty()) {
    throw std::invalid_argument("serve-mix needs --serve-binary");
  }
  note_parameters(result, options);
  if (options.trace) {
    run_traced(options, script, result);
    return result;
  }

  // Each timed segment runs on its own daemon, which replays the script
  // from its start; extra daemons before them only add set-up samples.
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t rep = kSegments; rep < kSetups; ++rep) {
    setup.push_back(start_daemon(options, script, daemon, result));
    stop_daemon(daemon, result);
  }
  ReplyCheck check(options.corrupt);
  std::vector<Segment> segments;
  std::vector<double> rss;
  std::vector<double> hit_ratio;
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    setup.push_back(start_daemon(options, script, daemon, result));
    std::array<std::size_t, kConnections> next{};
    auto control = daemon->connect();
    const auto before = stats_of(*control);
    const double cpu0 = proc_cpu_seconds(daemon->pid());
    const Phase phase = run_socket_phase(*daemon, script, next,
                                         options.seconds / kSegments, nullptr);
    const double cpu1 = proc_cpu_seconds(daemon->pid());
    const auto after = stats_of(*control);
    rss.push_back(peak_rss_mib(daemon->pid()));
    control.reset();
    stop_daemon(daemon, result);

    result.attempted += phase.samples.size() + phase.dropped;
    Segment segment;
    segment.verified = check.check(phase, result);
    segment.wall_s = phase.wall_s;
    segment.cpu_s = cpu1 - cpu0;
    segment.latency_ms = latencies(phase);
    segments.push_back(std::move(segment));
    hit_ratio.push_back((after.at("cache_hits") - before.at("cache_hits")) /
                        (after.at("submitted") - before.at("submitted")));
    if (seg == 0) {
      check.check_run_job(phase.samples, result);
    }
  }

  report_segments(result, segments, Tail::kPooled);
  result.metric("peak_rss_mb", median(rss), "MiB", rss.size());
  result.metric("setup_s", median(setup), "s", setup.size());
  report_verified_ratio(result);
  result.note("cache_hit_ratio", median(hit_ratio));
  result.note("fresh_requests_that_hit",
              static_cast<double>(check.fresh_hits()));
  result.note("run_job_checked", static_cast<double>(check.run_job_checked()));
  return result;
}

}  // namespace perfbench
