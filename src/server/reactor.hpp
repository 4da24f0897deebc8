#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/socket.hpp"
#include "util/thread_annotations.hpp"

namespace prpart::server {

/// The serve path's non-blocking event loop: one thread owns the listening
/// socket, a wake pipe and every client connection, registered
/// edge-triggered with epoll. Connections carry incremental read/write
/// buffers with newline framing; complete request lines are handed to the
/// `on_line` callback (on the reactor thread — it must only enqueue), and
/// responses come back cross-thread through post_final/post_notice.
///
/// A request line longer than TcpStream::kMaxLine (terminated or not) is
/// protocol abuse: that connection is closed, its unanswered requests are
/// dropped, and every other connection is unaffected.
///
/// Backpressure is structural: a connection with `max_inflight` outstanding
/// requests stops being read (and framed) until a final response retires
/// one, so a pipelining client is throttled by TCP itself instead of a
/// server-side buffer growing without bound.
///
/// Lifecycle (driven by Server::stop): shutdown_input() closes the
/// listener and stops reading, finish() flushes every outbox and joins.
class Reactor {
 public:
  struct Options {
    std::size_t max_inflight = 64;  ///< per-connection outstanding cap
  };

  /// `on_line(token, line)` receives each framed request; the token routes
  /// the eventual post_final/post_notice back to the connection.
  using LineHandler = std::function<void(std::uint64_t, std::string)>;

  Reactor(TcpListener listener, Options options, LineHandler on_line);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();

  /// Stops accepting and reading: the listener closes, every connection's
  /// undelivered buffered bytes are dropped, already-framed lines keep
  /// flowing to their responses. Idempotent; safe from any thread.
  void shutdown_input();

  /// Flushes every pending response, closes all connections and joins the
  /// reactor thread. Call after the last post_final has been issued.
  void finish();

  /// Queues the final response for a request (retires one in-flight slot
  /// and resumes a paused connection). Thread-safe; a line posted to a
  /// connection that is already gone is dropped.
  void post_final(std::uint64_t token, std::string line);

  /// Queues an interim line (`queued` backpressure notice): written in
  /// order with the other posts but retires nothing.
  void post_notice(std::uint64_t token, std::string line);

  std::uint64_t connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_total() const {
    return total_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    TcpStream stream;
    std::string inbuf;        ///< bytes read, not yet framed
    std::size_t scan_from = 0;  ///< inbuf offset where the '\n' scan resumes
    std::string outbuf;       ///< response bytes not yet written
    std::size_t out_from = 0; ///< outbuf offset of the first unwritten byte
    std::size_t inflight = 0; ///< framed lines without a final response
    bool read_ready = false;  ///< edge-triggered readiness latches
    bool write_ready = true;  ///< a fresh socket is writable until EAGAIN
    bool peer_eof = false;    ///< orderly shutdown or reset observed
    bool dead = false;        ///< write side failed; discard further output
  };

  struct Post {
    std::uint64_t token = 0;
    std::string line;
    bool final = false;
  };

  void loop();
  void handle_accepts();
  void pump(std::uint64_t token, Conn& conn);
  void frame_lines(std::uint64_t token, Conn& conn);
  void flush_writes(Conn& conn);
  void drain_posts();
  /// Closes and forgets a connection when fully retired (no in-flight
  /// responses, nothing left to write, or dead).
  void maybe_close(std::uint64_t token, Conn& conn);
  void close_conn(std::uint64_t token);

  const Options options_;
  const LineHandler on_line_;
  TcpListener listener_;
  WakePipe wake_;
  Epoll epoll_;
  std::thread thread_;

  // The registry mutex guards the token -> connection map's *structure*
  // (insert/erase/size); the Conn contents are only ever touched by the
  // reactor thread. Metrics threads lock it to count connections.
  mutable Mutex conns_mutex_{lock_order::Level::kReactorConns,
                             "reactor.conns"};
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_
      PRPART_GUARDED_BY(conns_mutex_);
  std::uint64_t next_token_ = 1;  ///< reactor thread only

  // Cross-thread response handoff: posters enqueue and wake, the reactor
  // drains. Deliberately a separate (higher) level from the registry so a
  // poster never touches connection state.
  Mutex posts_mutex_{lock_order::Level::kReactorOutbox, "reactor.outbox"};
  std::deque<Post> posts_ PRPART_GUARDED_BY(posts_mutex_);

  std::atomic<bool> input_shutdown_{false};
  std::atomic<bool> finishing_{false};
  std::atomic<std::uint64_t> open_connections_{0};
  std::atomic<std::uint64_t> total_connections_{0};
};

}  // namespace prpart::server
