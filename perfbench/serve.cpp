// The `prpart serve` child process and the single-threaded load generator
// that drives it over loopback.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "perfbench.hpp"
#include "util/clock.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"

namespace perfbench {

namespace {

using prpart::Error;
using prpart::TcpStream;

/// Load connections: at most one per core of a 4-core host.
constexpr std::size_t kConnections = 4;
/// The server's --io-workers, pinned for every workload.
constexpr unsigned kIoWorkers = 2;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(prpart::monotonic_now_ns() - start_ns) / 1e9;
}

/// Port from the server's "listening on 127.0.0.1:PORT" log line, or 0.
std::uint16_t port_from_log(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  static const std::string kMarker = "listening on 127.0.0.1:";
  while (std::getline(in, line)) {
    const std::size_t at = line.find(kMarker);
    if (at == std::string::npos) continue;
    return static_cast<std::uint16_t>(
        std::stoul(line.substr(at + kMarker.size())));
  }
  return 0;
}

std::string read_final(TcpStream& stream) {
  while (std::optional<std::string> line = stream.read_line()) {
    if (line->find("\"ok\":") != std::string::npos) return *line;
  }
  throw Error("server closed the connection before answering");
}

}  // namespace

ServerProcess spawn_server(const std::string& prpart, const WorkloadSpec& spec,
                           const std::string& store_dir,
                           const std::string& log_path) {
  std::vector<std::string> args = {
      prpart,         "serve",
      "--port",       "0",
      "--workers",    std::to_string(spec.workers),
      "--io-workers", std::to_string(kIoWorkers),
      "--job-threads", "1",
      "--cache",      std::to_string(spec.cache),
      "--log-interval", "0"};
  if (!store_dir.empty()) {
    args.push_back("--store");
    args.push_back(store_dir);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // A stale log would name an earlier server's port.
  ::unlink(log_path.c_str());
  ServerProcess server;
  const std::int64_t start_ns = prpart::monotonic_now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    // The server must not outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0 || null_fd < 0) ::_exit(127);
    ::dup2(null_fd, 0);
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  server.pid = pid;
  while (server.port == 0) {
    server.port = port_from_log(log_path);
    if (server.port != 0) break;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      server.pid = -1;
      throw Error("prpart serve exited during start-up; see " + log_path);
    }
    if (seconds_since(start_ns) > 60) {
      stop_server(server);
      throw Error("prpart serve did not report its port; see " + log_path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  try {
    TcpStream ping = TcpStream::connect("127.0.0.1", server.port);
    ping.write_all("{\"type\":\"ping\",\"id\":\"setup\"}\n");
    const std::string pong = read_final(ping);
    if (pong.find("\"pong\":true") == std::string::npos)
      throw Error("unexpected ping answer: " + pong);
  } catch (...) {
    stop_server(server);
    throw;
  }
  server.setup_s = seconds_since(start_ns);
  return server;
}

bool stop_server(ServerProcess& server) {
  if (server.pid <= 0) return true;
  ::kill(server.pid, SIGTERM);
  int status = 0;
  const std::int64_t start_ns = prpart::monotonic_now_ns();
  while (::waitpid(server.pid, &status, WNOHANG) != server.pid) {
    if (seconds_since(start_ns) > 60) {
      ::kill(server.pid, SIGKILL);
      ::waitpid(server.pid, &status, 0);
      server.pid = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.pid = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

ProcStats proc_stats(int pid) {
  ProcStats out;
  {
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    const std::size_t close = all.rfind(')');
    if (close == std::string::npos) throw Error("cannot read server stat");
    std::istringstream fields(all.substr(close + 2));
    std::vector<std::string> f;
    for (std::string tok; fields >> tok;) f.push_back(tok);
    // Fields after the command start at field 3; utime and stime are 14, 15.
    if (f.size() < 13) throw Error("short server stat");
    const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
    out.cpu_ms = (std::stod(f[11]) + std::stod(f[12])) * 1000.0 / ticks;
  }
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0)
      out.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;
  }
  return out;
}

double steal_ms() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && in >> field; ++i) {
  }
  if (!in) return 0;
  return static_cast<double>(field) * 1000.0 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

namespace {

bool steady_window(const LoadResult::Mark& a, const LoadResult::Mark& b) {
  const auto cpus = static_cast<double>(std::thread::hardware_concurrency());
  const double wall_ms = static_cast<double>(b.ns - a.ns) / 1e6;
  return b.steal_ms - a.steal_ms <= kMaxSteal * wall_ms * cpus;
}

}  // namespace

std::vector<bool> kept_windows(const std::vector<LoadResult::Mark>& marks) {
  const std::size_t n = marks.size() < 2 ? 0 : marks.size() - 1;
  std::vector<bool> keep(n);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < n; ++k) {
    keep[k] = steady_window(marks[k], marks[k + 1]);
    kept += keep[k] ? 1 : 0;
  }
  if (2 * kept < n) keep.assign(n, true);
  return keep;
}

std::string strip_id(const std::string& line) {
  static const std::string kHead = "{\"id\":\"";
  if (line.compare(0, kHead.size(), kHead) != 0) return line;
  const std::size_t close = line.find('"', kHead.size());
  return close == std::string::npos ? line : line.substr(close + 1);
}

std::string request_once(std::uint16_t port, const std::string& line) {
  TcpStream stream = TcpStream::connect("127.0.0.1", port);
  stream.write_all(line + "\n");
  return read_final(stream);
}

namespace {

enum class Probe { Job, Ping, Metrics };

struct Pending {
  std::int64_t send_ns = 0;
  std::size_t tmpl = 0;
  Probe probe = Probe::Job;
  std::size_t conn = 0;
  std::size_t seq = 0;  ///< send sequence number (jobs) or probe number
};

struct Conn {
  TcpStream stream;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t jobs_in_flight = 0;
};

/// `"code":"<x>"` of an error line, or "".
std::string error_code(const std::string& line) {
  static const std::string kCode = "\"code\":\"";
  const std::size_t at = line.find(kCode);
  if (at == std::string::npos) return "";
  const std::size_t end = line.find('"', at + kCode.size());
  return line.substr(at + kCode.size(), end - at - kCode.size());
}

}  // namespace

LoadResult run_load(std::uint16_t port, Stream& stream,
                    const WorkloadSpec& spec, const LoadOptions& options,
                    const std::vector<std::size_t>* fixed_templates) {
  LoadResult out;
  std::vector<Conn> conns(kConnections);
  for (Conn& c : conns) {
    c.stream = TcpStream::connect("127.0.0.1", port);
    c.stream.set_nonblocking(true);
  }
  std::unordered_map<std::string, Pending> pending;
  std::size_t next_probe = 0;

  const std::int64_t start_ns = prpart::monotonic_now_ns();
  const auto deadline_ns =
      start_ns + static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t next_ping_ns = start_ns;
  std::int64_t next_metrics_ns = start_ns;
  std::int64_t last_final_ns = start_ns;
  std::int64_t last_progress_ns = start_ns;
  std::int64_t next_mark_ns = start_ns;

  const auto fail = [&](const std::string& why) {
    ++out.failed;
    if (out.failures.size() < 8) out.failures.push_back(why);
  };
  // Answers in the seconds closed so far that kept_windows() keeps.
  std::size_t windows = 0;
  std::size_t steady_windows = 0;
  std::size_t steady_answers = 0;
  const auto kept_answers = [&]() -> std::size_t {
    if (2 * steady_windows >= windows) return steady_answers;
    return out.marks.empty() ? 0 : out.marks.back().answers;
  };
  const auto may_send = [&](std::int64_t now) {
    const std::size_t seq = out.sent.size();
    if (fixed_templates != nullptr) return seq < fixed_templates->size();
    return now < deadline_ns || seq < options.min_requests ||
           (options.server_pid > 0 && kept_answers() < options.min_kept);
  };

  std::vector<char> buf(1 << 16);
  std::vector<pollfd> fds(conns.size());
  bool stopped = false;
  while (true) {
    const std::int64_t now = prpart::monotonic_now_ns();
    const bool sending = !stopped && may_send(now);
    stopped = !sending;
    // A mark every second while sending, and one when sending stops.
    if (options.server_pid > 0 && next_mark_ns >= 0 &&
        (!sending || now >= next_mark_ns)) {
      out.marks.push_back(LoadResult::Mark{
          now, steal_ms(), proc_stats(options.server_pid).cpu_ms,
          out.completed});
      if (out.marks.size() >= 2) {
        const LoadResult::Mark& a = out.marks[out.marks.size() - 2];
        const LoadResult::Mark& b = out.marks.back();
        ++windows;
        if (steady_window(a, b)) {
          ++steady_windows;
          steady_answers += b.answers - a.answers;
        }
      }
      next_mark_ns = sending ? next_mark_ns + 1'000'000'000 : -1;
    }
    // Keep every connection's window full.
    for (std::size_t ci = 0; ci < conns.size() && sending; ++ci) {
      Conn& c = conns[ci];
      while (c.jobs_in_flight < spec.window && may_send(now)) {
        const std::size_t seq = out.sent.size();
        const std::size_t t = fixed_templates != nullptr
                                  ? (*fixed_templates)[seq]
                                  : stream.at(seq);
        const std::string id = stream.id(seq);
        c.out += stream.tmpl(t).line(id);
        c.out += '\n';
        pending[id] = Pending{now, t, Probe::Job, ci, seq};
        out.sent.push_back(t);
        ++c.jobs_in_flight;
      }
    }
    if (options.probes && sending) {
      // Probes ride on the load connections, beside the jobs in flight.
      if (now >= next_ping_ns) {
        const std::string id = "ping" + std::to_string(next_probe);
        const std::size_t ci = next_probe++ % conns.size();
        conns[ci].out += "{\"type\":\"ping\",\"id\":\"" + id + "\"}\n";
        pending[id] = Pending{now, 0, Probe::Ping, ci, next_probe};
        next_ping_ns = now + 20'000'000;
      }
      if (now >= next_metrics_ns) {
        const std::string id = "metrics" + std::to_string(next_probe);
        const std::size_t ci = next_probe++ % conns.size();
        conns[ci].out += "{\"type\":\"metrics\",\"id\":\"" + id + "\"}\n";
        pending[id] = Pending{now, 0, Probe::Metrics, ci, next_probe};
        next_metrics_ns = now + 100'000'000;
      }
    }
    if (!sending && pending.empty()) break;

    for (std::size_t ci = 0; ci < conns.size(); ++ci) {
      fds[ci].fd = conns[ci].stream.fd();
      fds[ci].events = static_cast<short>(
          POLLIN | (conns[ci].out.size() > conns[ci].out_off ? POLLOUT : 0));
      fds[ci].revents = 0;
    }
    const int ready = ::poll(fds.data(), fds.size(), 5);
    if (ready < 0 && errno != EINTR) throw Error("poll failed");
    for (std::size_t ci = 0; ci < conns.size(); ++ci) {
      Conn& c = conns[ci];
      if ((fds[ci].revents & POLLOUT) != 0) {
        const TcpStream::IoResult w = c.stream.write_some(
            c.out.data() + c.out_off, c.out.size() - c.out_off);
        if (w.status == TcpStream::IoStatus::kClosed)
          throw Error("server closed a load connection");
        c.out_off += w.bytes;
        if (c.out_off == c.out.size()) {
          c.out.clear();
          c.out_off = 0;
        }
      }
      if ((fds[ci].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      while (true) {
        const TcpStream::IoResult r = c.stream.read_some(buf.data(), buf.size());
        if (r.status == TcpStream::IoStatus::kWouldBlock) break;
        if (r.status == TcpStream::IoStatus::kClosed)
          throw Error("server closed a load connection");
        c.in.append(buf.data(), r.bytes);
      }
      std::size_t begin = 0;
      for (std::size_t nl; (nl = c.in.find('\n', begin)) != std::string::npos;
           begin = nl + 1) {
        const std::string line = c.in.substr(begin, nl - begin);
        const std::string rest = strip_id(line);
        if (rest.compare(0, 6, ",\"ok\":") != 0) continue;  // queued notice
        const std::string id = line.substr(7, line.size() - rest.size() - 8);
        const auto it = pending.find(id);
        if (it == pending.end()) {
          fail("answer for unknown id " + id);
          continue;
        }
        const std::int64_t done = prpart::monotonic_now_ns();
        const double ms = static_cast<double>(done - it->second.send_ns) / 1e6;
        const Pending p = it->second;
        pending.erase(it);
        last_progress_ns = done;
        if (options.probes)
          out.timed.push_back(LoadResult::Timed{
              p.send_ns, done, p.seq + 1, p.probe != Probe::Job});
        if (p.probe != Probe::Job) {
          if (p.probe == Probe::Ping) {
            out.ping_rtt_ms.push_back(ms);
          } else {
            const prpart::json::Value doc = prpart::json::parse(line);
            const prpart::json::Value& result = doc.at("result");
            out.queue_depth.push_back(static_cast<double>(
                result.at("jobs").at("queue_depth").as_u64()));
            out.admission_depth.push_back(static_cast<double>(
                result.at("server").at("admission_depth").as_u64()));
          }
          continue;
        }
        --conns[p.conn].jobs_in_flight;
        ++out.completed;
        last_final_ns = done;
        out.latency_ms.push_back(ms);
        out.done_ns.push_back(done);
        if (rest.compare(0, 11, ",\"ok\":true,") != 0) {
          const std::string code = error_code(line);
          if (code != "infeasible") {
            fail("request " + id + " failed: " + line.substr(0, 300));
            continue;
          }
        }
        const auto [known, inserted] = out.answers.emplace(p.tmpl, rest);
        if (!inserted && known->second != rest)
          fail("request " + id + " answered differently from an earlier "
               "request for the same design");
      }
      c.in.erase(0, begin);
    }
    if (!pending.empty() && seconds_since(last_progress_ns) > 120)
      throw Error("no answer from the server for 120 s");
  }
  out.attempted = out.sent.size();
  out.wall_s = static_cast<double>(last_final_ns - start_ns) / 1e9;
  return out;
}

}  // namespace perfbench
