#include "util/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace prpart {

namespace {

/// Thread-safe strerror: handler threads can hit errno paths concurrently,
/// so the static-buffer std::strerror is off limits (concurrency-mt-unsafe).
/// Overload dispatch covers both strerror_r flavours — glibc's GNU variant
/// returns the message pointer (possibly ignoring the buffer), the XSI
/// variant fills the buffer and returns an int status.
[[maybe_unused]] const char* strerror_message(const char* msg,
                                              const char* /*buf*/) {
  return msg;
}
[[maybe_unused]] const char* strerror_message(int rc, const char* buf) {
  return rc == 0 ? buf : "unknown error";
}

std::string errno_message(int err) {
  char buf[256];
  buf[0] = '\0';
  return strerror_message(strerror_r(err, buf, sizeof(buf)), buf);
}

[[noreturn]] void throw_errno(const std::string& op) {
  throw SocketError(op + ": " + errno_message(errno));
}

void set_fd_nonblocking(int fd, bool on, const char* what) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno(std::string("fcntl F_GETFL (") + what + ")");
  const int wanted = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) < 0)
    throw_errno(std::string("fcntl F_SETFL (") + what + ")");
}

sockaddr_in loopback_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1)
    throw SocketError("cannot parse IPv4 address '" + host + "'");
  return addr;
}

}  // namespace

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const sockaddr_in addr = loopback_addr(host, port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpStream(fd);
}

std::optional<std::string> TcpStream::read_line(std::size_t max_line) {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      if (nl > max_line)
        throw SocketError("protocol line exceeds " +
                          std::to_string(max_line) + " bytes");
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (buffer_.size() > max_line)
      throw SocketError("protocol line exceeds " + std::to_string(max_line) +
                        " bytes");
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) {
      if (buffer_.empty()) return std::nullopt;
      // Unterminated trailing data: treat it as the final line.
      std::string line = std::move(buffer_);
      buffer_.clear();
      return line;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void TcpStream::write_all(std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void TcpStream::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void TcpStream::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void TcpStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpStream::set_nonblocking(bool on) {
  set_fd_nonblocking(fd_, on, "stream");
}

TcpStream::IoResult TcpStream::read_some(char* buf, std::size_t len) {
  while (true) {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n > 0) return {IoStatus::kOk, static_cast<std::size_t>(n)};
    if (n == 0) return {IoStatus::kClosed, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return {IoStatus::kWouldBlock, 0};
    if (errno == ECONNRESET) return {IoStatus::kClosed, 0};
    throw_errno("recv");
  }
}

TcpStream::IoResult TcpStream::write_some(const char* data, std::size_t len) {
  while (true) {
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n >= 0) return {IoStatus::kOk, static_cast<std::size_t>(n)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return {IoStatus::kWouldBlock, 0};
    if (errno == EPIPE || errno == ECONNRESET) return {IoStatus::kClosed, 0};
    throw_errno("send");
  }
}

WakePipe::WakePipe() {
  if (::pipe(fds_) != 0) throw_errno("pipe");
  set_fd_nonblocking(fds_[0], true, "wake pipe");
  set_fd_nonblocking(fds_[1], true, "wake pipe");
}

WakePipe::~WakePipe() {
  if (fds_[0] >= 0) ::close(fds_[0]);
  if (fds_[1] >= 0) ::close(fds_[1]);
}

WakePipe::WakePipe(WakePipe&& other) noexcept {
  fds_[0] = std::exchange(other.fds_[0], -1);
  fds_[1] = std::exchange(other.fds_[1], -1);
}

WakePipe& WakePipe::operator=(WakePipe&& other) noexcept {
  if (this != &other) {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[0] = std::exchange(other.fds_[0], -1);
    fds_[1] = std::exchange(other.fds_[1], -1);
  }
  return *this;
}

void WakePipe::notify() {
  const char byte = 1;
  // A full pipe already guarantees the sleeper will wake, so EAGAIN (and a
  // racing EINTR) are success; no loop, so this stays signal-safe.
  [[maybe_unused]] const ssize_t n = ::write(fds_[1], &byte, 1);
}

void WakePipe::drain() {
  char sink[64];
  while (::read(fds_[0], sink, sizeof sink) > 0) {
  }
}

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(std::exchange(other.port_, 0)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

TcpListener TcpListener::bind(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_addr("127.0.0.1", port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  // Deep accept queue: the reactor serves 1k+ concurrent clients from one
  // process, and a connect burst must not overflow the backlog while the
  // accept loop waits for its next scheduling quantum.
  if (::listen(fd, 1024) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("getsockname");
  }
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

std::optional<TcpStream> TcpListener::accept_wait(WakePipe& wake) {
  pollfd pfds[2] = {{fd_, POLLIN, 0}, {wake.read_fd(), POLLIN, 0}};
  const int ready = ::poll(pfds, 2, -1);
  if (ready < 0) {
    if (errno == EINTR) return std::nullopt;
    throw_errno("poll");
  }
  if ((pfds[1].revents & POLLIN) != 0) {
    wake.drain();
    return std::nullopt;  // woken: the caller re-checks its stop flag
  }
  if ((pfds[0].revents & POLLIN) == 0) return std::nullopt;
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return std::nullopt;
    throw_errno("accept");
  }
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpStream(client);
}

std::optional<TcpStream> TcpListener::accept_nonblocking() {
  while (true) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return TcpStream(client);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED)
      return std::nullopt;
    throw_errno("accept");
  }
}

void TcpListener::set_nonblocking(bool on) {
  set_fd_nonblocking(fd_, on, "listener");
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Epoll::Epoll() : fd_(::epoll_create1(0)) {
  if (fd_ < 0) throw_errno("epoll_create1");
}

Epoll::~Epoll() {
  if (fd_ >= 0) ::close(fd_);
}

Epoll::Epoll(Epoll&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Epoll& Epoll::operator=(Epoll&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Epoll::add(int fd, std::uint64_t token, bool want_write,
                bool edge_triggered) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u) |
              (edge_triggered ? EPOLLET : 0u) | EPOLLRDHUP;
  ev.data.u64 = token;
  if (::epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) != 0) throw_errno("epoll_ctl");
}

void Epoll::remove(int fd) {
  epoll_event ev{};  // ignored, but required pre-2.6.9
  ::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, &ev);
}

std::size_t Epoll::wait(std::vector<Event>& out, int timeout_ms) {
  out.clear();
  epoll_event events[128];
  const int n = ::epoll_wait(fd_, events, 128, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw_errno("epoll_wait");
  }
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event e;
    e.token = events[i].data.u64;
    // Errors and hangups surface as readability: the next read observes
    // the EOF/error and the connection state machine handles it uniformly.
    e.readable = (events[i].events &
                  (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP)) != 0;
    e.writable = (events[i].events & EPOLLOUT) != 0;
    out.push_back(e);
  }
  return static_cast<std::size_t>(n);
}

}  // namespace prpart
