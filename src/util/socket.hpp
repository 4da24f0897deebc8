#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace prpart {

/// A socket operation failed at the OS level (bind, connect, send, ...).
class SocketError : public Error {
 public:
  explicit SocketError(const std::string& what) : Error(what) {}
};

/// A connected TCP byte stream with line-oriented reads, sized for the
/// newline-delimited JSON protocol. Dependency-free POSIX sockets; writes
/// never raise SIGPIPE (a peer that vanished surfaces as SocketError).
/// Move-only: the destructor closes the descriptor.
class TcpStream {
 public:
  TcpStream() = default;
  /// Adopts an already-connected descriptor (e.g. from TcpListener).
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();

  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connects to host:port (numeric IPv4 dotted quad or "localhost").
  static TcpStream connect(const std::string& host, std::uint16_t port);

  bool valid() const { return fd_ >= 0; }

  /// Reads up to and including the next '\n'; returns the line without the
  /// terminator (a trailing '\r' is also stripped). Returns nullopt on a
  /// clean EOF with no buffered data. A line longer than `max_line` bytes
  /// throws SocketError (protocol abuse guard).
  std::optional<std::string> read_line(std::size_t max_line = kMaxLine);

  /// Writes the whole buffer, retrying short writes.
  void write_all(std::string_view data);

  /// Half-closes the read side; a blocked read_line on another thread
  /// returns EOF. Used by the shard router's graceful drain.
  void shutdown_read();

  /// Half-closes the write side: the peer observes EOF after draining what
  /// was already sent, while this end keeps reading. Used by the shard
  /// router to propagate a client's EOF upstream without losing responses.
  void shutdown_write();

  void close();

  /// Raw descriptor, for event-loop registration. -1 when invalid.
  int fd() const { return fd_; }

  /// Switches O_NONBLOCK; the non-blocking calls below require it on.
  void set_nonblocking(bool on);

  /// Outcome of one non-blocking read_some/write_some step.
  enum class IoStatus {
    kOk,          ///< `bytes` were transferred (> 0)
    kWouldBlock,  ///< the socket is not ready; wait for the next event
    kClosed,      ///< orderly EOF (read) or peer reset/gone (either way)
  };
  struct IoResult {
    IoStatus status = IoStatus::kWouldBlock;
    std::size_t bytes = 0;
  };

  /// One non-blocking recv into `buf`. EINTR is retried; ECONNRESET maps to
  /// kClosed (a vanished peer is an event-loop state change, not an error);
  /// other failures throw SocketError.
  IoResult read_some(char* buf, std::size_t len);

  /// One non-blocking send (SIGPIPE suppressed). Short writes return kOk
  /// with the partial count; EPIPE/ECONNRESET map to kClosed.
  IoResult write_some(const char* data, std::size_t len);

  /// Default cap on one protocol line (64 MiB covers any realistic design).
  static constexpr std::size_t kMaxLine = 64u << 20;

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last returned line
};

/// A self-pipe for waking a thread blocked in poll/epoll from any other
/// thread. notify() is async-signal-safe and idempotent while unconsumed;
/// drain() consumes every pending wakeup. Move-only.
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(WakePipe&& other) noexcept;
  WakePipe& operator=(WakePipe&& other) noexcept;
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int read_fd() const { return fds_[0]; }
  void notify();
  void drain();

 private:
  int fds_[2] = {-1, -1};
};

/// A listening TCP socket bound to the loopback interface. Connections are
/// taken either by parking in accept_wait() (woken through a WakePipe) or,
/// from an event loop, by accept_nonblocking().
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on 127.0.0.1:port; port 0 picks an ephemeral port
  /// (read it back with port() — the integration tests boot on port 0).
  static TcpListener bind(std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Readiness-wait accept: parks indefinitely until either a connection
  /// arrives or `wake` is notified, so an idle accept loop costs zero
  /// wakeups instead of polling on a timeout. Returns nullopt when woken
  /// (or on a transient EINTR/ECONNABORTED) — callers re-check their stop
  /// flag and loop.
  std::optional<TcpStream> accept_wait(WakePipe& wake);

  /// One non-blocking accept (requires set_nonblocking(true)); nullopt when
  /// no connection is pending. Used by the epoll reactor, which learns
  /// about readiness from the event loop instead of blocking here.
  std::optional<TcpStream> accept_nonblocking();

  /// Raw descriptor, for event-loop registration. -1 when invalid.
  int fd() const { return fd_; }

  /// Switches O_NONBLOCK on the listening socket.
  void set_nonblocking(bool on);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// A thin epoll wrapper sized for the serve reactor: register descriptors
/// with a caller-chosen 64-bit token, optionally edge-triggered, and wait
/// for batches of events. Move-only; the destructor closes the epoll fd.
class Epoll {
 public:
  struct Event {
    std::uint64_t token = 0;
    bool readable = false;  ///< EPOLLIN (or EPOLLERR/EPOLLHUP: a read will
                            ///< observe the error/EOF, so they map here too)
    bool writable = false;  ///< EPOLLOUT
  };

  Epoll();
  ~Epoll();
  Epoll(Epoll&& other) noexcept;
  Epoll& operator=(Epoll&& other) noexcept;
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  /// Registers `fd` for read and (optionally) write events under `token`.
  /// Edge-triggered registration reports each readiness transition once;
  /// the caller must drain until kWouldBlock before the next event arrives.
  void add(int fd, std::uint64_t token, bool want_write, bool edge_triggered);
  void remove(int fd);

  /// Blocks up to timeout_ms (-1 = forever); appends ready events to `out`
  /// (cleared first) and returns their count. EINTR returns 0.
  std::size_t wait(std::vector<Event>& out, int timeout_ms);

 private:
  int fd_ = -1;
};

}  // namespace prpart
