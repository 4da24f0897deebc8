#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "util/socket.hpp"
#include "util/thread_annotations.hpp"

namespace prpart::server {

struct RouterOptions {
  /// Front port (loopback, like the server); 0 picks an ephemeral port.
  std::uint16_t port = 0;
  /// The shard servers' ports, in shard order. At least one.
  std::vector<std::uint16_t> shard_ports;
  std::string shard_host = "127.0.0.1";
  /// Nullable log sink.
  std::ostream* log = nullptr;
};

/// The `prpart serve --shards N` front process: accepts client connections
/// and consistent-hashes each job across the shard servers by its design's
/// content digest, so repeat submissions of a design always land on the
/// shard whose result store is warm with it.
///
/// Routing is per *request*, not per connection: one client connection may
/// fan out across every shard. Request lines pass through verbatim (ids
/// untouched) and responses are relayed back verbatim, so the byte-identity
/// contract holds end to end; with one in-flight request per shard pair the
/// interleaving is exactly the shard's. Non-job requests (ping, stats,
/// metrics) and unparseable lines go to shard 0.
///
/// The hash ring uses 64 virtual nodes per shard, so adding a shard moves
/// roughly 1/N of the key space instead of reshuffling everything.
class ShardRouter {
 public:
  explicit ShardRouter(RouterOptions options);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Binds the front listener and spawns the accept thread. Throws
  /// SocketError when the port cannot be bound.
  void start();

  /// Bound front port (valid after start()).
  std::uint16_t port() const { return bound_port_; }

  /// Stops accepting, unblocks every relay and joins. Idempotent.
  void stop();

  /// The shard a request line routes to (exposed for tests): the ring
  /// lookup of the design digest, or 0 when the line does not carry a
  /// parseable design.
  std::size_t shard_of_line(const std::string& line) const;

  /// The ring lookup for an explicit 32-hex content digest.
  std::size_t shard_of_digest(const std::string& digest) const;

 private:
  /// One client connection: its socket, the lazily opened upstream
  /// connection per shard, and one relay thread per opened upstream
  /// copying responses back.
  struct ClientConn {
    TcpStream stream;
    std::thread reader;
    std::atomic<bool> done{false};
    /// Serialises relay threads interleaving response lines onto the
    /// client socket. Documented level kShardRouter (lock_order.hpp).
    Mutex write_mutex{lock_order::Level::kShardRouter, "router.client_write"};
    std::vector<TcpStream> upstreams;      ///< reader thread only
    std::vector<std::thread> relays;       ///< reader thread only
  };

  struct RingPoint {
    std::uint64_t point = 0;
    std::size_t shard = 0;
  };

  void accept_clients();
  void serve_client(ClientConn* conn);
  /// Relays every response line from `upstream` back to the client.
  void relay_loop(ClientConn* conn, std::size_t shard);
  void log_line(const std::string& line);

  const RouterOptions options_;
  std::vector<RingPoint> ring_;  ///< sorted by point; built once in ctor

  TcpListener listener_;
  std::uint16_t bound_port_ = 0;
  WakePipe wake_;
  std::thread accept_thread_;

  /// Client registry so stop() can unblock reader threads. Same level as
  /// the per-connection write mutex (kShardRouter) — the two are never
  /// held together.
  Mutex clients_mutex_{lock_order::Level::kShardRouter, "router.clients"};
  std::list<std::unique_ptr<ClientConn>> clients_
      PRPART_GUARDED_BY(clients_mutex_);

  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  Mutex log_mutex_{lock_order::Level::kServerLog, "router.log"};
};

}  // namespace prpart::server
