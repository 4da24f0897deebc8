#include "server/reactor.hpp"

#include <algorithm>
#include <utility>

#include "util/clock.hpp"

namespace prpart::server {

namespace {

constexpr std::uint64_t kListenerToken = 0;
constexpr std::uint64_t kWakeToken = 1;
constexpr std::uint64_t kFirstConnToken = 2;

/// How long finish() keeps retrying to flush responses to slow peers
/// before force-closing them (a vanished client must not wedge stop()).
constexpr std::int64_t kFinishDeadlineNs = 5'000'000'000;

}  // namespace

Reactor::Reactor(TcpListener listener, Options options, LineHandler on_line)
    : options_(options),
      on_line_(std::move(on_line)),
      listener_(std::move(listener)) {}

Reactor::~Reactor() {
  if (thread_.joinable()) {
    shutdown_input();
    finish();
  }
}

void Reactor::start() {
  listener_.set_nonblocking(true);
  // Listener and wake pipe are level-triggered (no state machine needed);
  // connections are edge-triggered and drained to EAGAIN.
  epoll_.add(listener_.fd(), kListenerToken, false, false);
  epoll_.add(wake_.read_fd(), kWakeToken, false, false);
  thread_ = std::thread([this] { loop(); });
}

void Reactor::shutdown_input() {
  input_shutdown_.store(true);
  wake_.notify();
}

void Reactor::finish() {
  finishing_.store(true);
  wake_.notify();
  if (thread_.joinable()) thread_.join();
}

void Reactor::post_final(std::uint64_t token, std::string line) {
  {
    const MutexLock lock(posts_mutex_);
    posts_.push_back(Post{token, std::move(line), true});
  }
  wake_.notify();
}

void Reactor::post_notice(std::uint64_t token, std::string line) {
  {
    const MutexLock lock(posts_mutex_);
    posts_.push_back(Post{token, std::move(line), false});
  }
  wake_.notify();
}

void Reactor::loop() {
  std::vector<Epoll::Event> events;
  bool input_closed = false;
  std::int64_t finish_started_ns = 0;
  while (true) {
    const bool finishing = finishing_.load();
    epoll_.wait(events, finishing ? 50 : -1);

    if (input_shutdown_.load() && !input_closed) {
      input_closed = true;
      epoll_.remove(listener_.fd());
      listener_.close();
      const MutexLock lock(conns_mutex_);
      for (auto& [token, conn] : conns_) {
        // Stop reading: unframed bytes are dropped, framed lines already
        // dispatched keep flowing to their responses.
        conn->peer_eof = true;
        conn->inbuf.clear();
        conn->scan_from = 0;
      }
    }

    for (const Epoll::Event& event : events) {
      if (event.token == kListenerToken) {
        if (!input_closed) handle_accepts();
        continue;
      }
      if (event.token == kWakeToken) {
        wake_.drain();
        continue;
      }
      Conn* conn = nullptr;
      {
        const MutexLock lock(conns_mutex_);
        const auto it = conns_.find(event.token);
        if (it != conns_.end()) conn = it->second.get();
      }
      if (!conn) continue;
      if (event.readable) conn->read_ready = true;
      if (event.writable) conn->write_ready = true;
      pump(event.token, *conn);
    }

    drain_posts();

    if (finishing) {
      if (finish_started_ns == 0) finish_started_ns = monotonic_now_ns();
      const bool expired =
          monotonic_now_ns() - finish_started_ns > kFinishDeadlineNs;
      std::vector<std::uint64_t> close_now;
      {
        const MutexLock lock(conns_mutex_);
        for (auto& [token, conn] : conns_)
          if (expired || conn->dead ||
              conn->out_from >= conn->outbuf.size())
            close_now.push_back(token);
      }
      for (const std::uint64_t token : close_now) close_conn(token);
      const MutexLock lock(conns_mutex_);
      if (conns_.empty()) return;
    }
  }
}

void Reactor::handle_accepts() {
  while (std::optional<TcpStream> stream = listener_.accept_nonblocking()) {
    stream->set_nonblocking(true);
    const std::uint64_t token = next_token_ < kFirstConnToken
                                    ? (next_token_ = kFirstConnToken)++
                                    : next_token_++;
    auto conn = std::make_unique<Conn>();
    conn->stream = std::move(*stream);
    const int fd = conn->stream.fd();
    {
      const MutexLock lock(conns_mutex_);
      conns_.emplace(token, std::move(conn));
    }
    epoll_.add(fd, token, true, true);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    total_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Reactor::pump(std::uint64_t token, Conn& conn) {
  // Read phase: drain the socket while the connection is below its
  // in-flight cap. At the cap we stop reading entirely — the kernel buffer
  // and then the client's TCP window absorb the rest (real backpressure).
  char chunk[16 * 1024];
  while (conn.read_ready && !conn.peer_eof && !conn.dead &&
         conn.inflight < options_.max_inflight) {
    const TcpStream::IoResult r = conn.stream.read_some(chunk, sizeof chunk);
    if (r.status == TcpStream::IoStatus::kWouldBlock) {
      conn.read_ready = false;
      break;
    }
    if (r.status == TcpStream::IoStatus::kClosed) {
      conn.peer_eof = true;
      break;
    }
    conn.inbuf.append(chunk, r.bytes);
    frame_lines(token, conn);
  }
  frame_lines(token, conn);
  flush_writes(conn);
  maybe_close(token, conn);
}

void Reactor::frame_lines(std::uint64_t token, Conn& conn) {
  if (conn.dead) return;
  std::size_t consumed = 0;
  while (conn.inflight < options_.max_inflight) {
    const std::size_t nl = conn.inbuf.find('\n', conn.scan_from);
    std::string line;
    if (nl == std::string::npos) {
      conn.scan_from = conn.inbuf.size();
      if (conn.inbuf.size() - consumed > TcpStream::kMaxLine) {
        conn.dead = true;  // protocol abuse: unbounded line
        break;
      }
      // Mirror the blocking read_line: at EOF, unterminated trailing bytes
      // are the final line (unless input shutdown already dropped them).
      if (!conn.peer_eof || consumed >= conn.inbuf.size()) break;
      line = conn.inbuf.substr(consumed);
      consumed = conn.inbuf.size();
    } else {
      if (nl - consumed > TcpStream::kMaxLine) {
        conn.dead = true;
        break;
      }
      line = conn.inbuf.substr(consumed, nl - consumed);
      consumed = nl + 1;
      conn.scan_from = consumed;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    ++conn.inflight;
    on_line_(token, std::move(line));
  }
  if (consumed > 0) {
    conn.inbuf.erase(0, consumed);
    conn.scan_from -= std::min(conn.scan_from, consumed);
  }
}

void Reactor::flush_writes(Conn& conn) {
  while (!conn.dead && conn.write_ready &&
         conn.out_from < conn.outbuf.size()) {
    const TcpStream::IoResult r = conn.stream.write_some(
        conn.outbuf.data() + conn.out_from, conn.outbuf.size() - conn.out_from);
    if (r.status == TcpStream::IoStatus::kWouldBlock) {
      conn.write_ready = false;
      break;
    }
    if (r.status == TcpStream::IoStatus::kClosed) {
      conn.dead = true;
      break;
    }
    if (r.bytes == 0) break;  // defensive: avoid a spin on a 0-byte send
    conn.out_from += r.bytes;
  }
  if (conn.out_from >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_from = 0;
  } else if (conn.out_from > (1u << 20)) {
    conn.outbuf.erase(0, conn.out_from);
    conn.out_from = 0;
  }
}

void Reactor::drain_posts() {
  std::deque<Post> batch;
  {
    const MutexLock lock(posts_mutex_);
    batch.swap(posts_);
  }
  if (batch.empty()) return;
  std::vector<std::uint64_t> touched;
  for (Post& post : batch) {
    Conn* conn = nullptr;
    {
      const MutexLock lock(conns_mutex_);
      const auto it = conns_.find(post.token);
      if (it != conns_.end()) conn = it->second.get();
    }
    if (!conn) continue;  // connection already gone: drop the response
    if (post.final && conn->inflight > 0) --conn->inflight;
    if (!conn->dead) {
      conn->outbuf += post.line;
      conn->outbuf += '\n';
    }
    if (touched.empty() || touched.back() != post.token)
      touched.push_back(post.token);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const std::uint64_t token : touched) {
    Conn* conn = nullptr;
    {
      const MutexLock lock(conns_mutex_);
      const auto it = conns_.find(token);
      if (it != conns_.end()) conn = it->second.get();
    }
    // A retired in-flight slot may unblock reading, so run the full pump.
    if (conn) pump(token, *conn);
  }
}

void Reactor::maybe_close(std::uint64_t token, Conn& conn) {
  const bool flushed = conn.out_from >= conn.outbuf.size();
  if (conn.dead || (conn.peer_eof && conn.inflight == 0 && flushed &&
                    conn.inbuf.empty()))
    close_conn(token);
}

void Reactor::close_conn(std::uint64_t token) {
  std::unique_ptr<Conn> conn;
  {
    const MutexLock lock(conns_mutex_);
    const auto it = conns_.find(token);
    if (it == conns_.end()) return;
    conn = std::move(it->second);
    conns_.erase(it);
  }
  epoll_.remove(conn->stream.fd());
  conn->stream.close();
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace prpart::server
