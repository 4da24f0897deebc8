#include "server/router.hpp"

#include <algorithm>

#include "design/io_xml.hpp"
#include "server/hash.hpp"
#include "server/protocol.hpp"
#include "util/status.hpp"

namespace prpart::server {

namespace {

constexpr std::size_t kVnodesPerShard = 64;

/// First 16 hex chars of a content digest as the ring coordinate. The
/// digest's FNV lanes avalanche poorly in the high bits on short inputs
/// (the vnode labels), which skews shard shares badly, so the value is
/// finalised with splitmix64 — applied identically to vnode points and
/// lookup keys, preserving consistency.
std::uint64_t ring_coordinate(const std::string& digest) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 16 && i < digest.size(); ++i) {
    const char c = digest[i];
    v <<= 4;
    if (c >= '0' && c <= '9')
      v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
  }
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ULL;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebULL;
  v ^= v >> 31;
  return v;
}

}  // namespace

ShardRouter::ShardRouter(RouterOptions options) : options_(std::move(options)) {
  require(!options_.shard_ports.empty(), "router needs at least one shard");
  ring_.reserve(options_.shard_ports.size() * kVnodesPerShard);
  for (std::size_t shard = 0; shard < options_.shard_ports.size(); ++shard)
    for (std::size_t v = 0; v < kVnodesPerShard; ++v) {
      const std::string label =
          "shard-" + std::to_string(shard) + "#" + std::to_string(v);
      ring_.push_back(RingPoint{ring_coordinate(content_hash(label)), shard});
    }
  std::sort(ring_.begin(), ring_.end(),
            [](const RingPoint& a, const RingPoint& b) {
              return a.point != b.point ? a.point < b.point
                                        : a.shard < b.shard;
            });
}

ShardRouter::~ShardRouter() { stop(); }

void ShardRouter::start() {
  require(!started_.exchange(true), "router already started");
  listener_ = TcpListener::bind(options_.port);
  bound_port_ = listener_.port();
  accept_thread_ = std::thread([this] { accept_clients(); });
  log_line("routing 127.0.0.1:" + std::to_string(bound_port_) + " across " +
           std::to_string(options_.shard_ports.size()) + " shards");
}

void ShardRouter::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  stopping_.store(true);
  wake_.notify();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  // Unblock every client reader; each one then half-closes its upstreams,
  // lets the shards answer what is already in flight, joins its relays and
  // marks itself done.
  {
    const MutexLock lock(clients_mutex_);
    for (const auto& conn : clients_) conn->stream.shutdown_read();
  }
  {
    const MutexLock lock(clients_mutex_);
    for (const auto& conn : clients_)
      if (conn->reader.joinable()) conn->reader.join();
    clients_.clear();
  }
  log_line("router stopped");
}

std::size_t ShardRouter::shard_of_digest(const std::string& digest) const {
  const std::uint64_t point = ring_coordinate(digest);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const RingPoint& p, std::uint64_t key) { return p.point < key; });
  return it != ring_.end() ? it->shard : ring_.front().shard;  // wrap
}

std::size_t ShardRouter::shard_of_line(const std::string& line) const {
  try {
    const Request request = parse_request(line);
    const PartitionRequest* core = nullptr;
    switch (request.type) {
      case Request::Type::Partition:
        core = &request.partition;
        break;
      case Request::Type::Simulate:
        core = &request.simulate.partition;
        break;
      case Request::Type::Floorplan:
        core = &request.floorplan.partition;
        break;
      default:
        return 0;
    }
    // Route by the *canonical* design digest, so declaration-order variants
    // of one design land on the same warm shard (the same canonicalisation
    // the result-store key uses).
    const Design design = design_from_xml(core->design_xml);
    return shard_of_digest(content_hash(canonical_design_string(design)));
  } catch (const std::exception&) {
    // Unparseable lines go to shard 0, whose server renders the error.
    return 0;
  }
}

void ShardRouter::accept_clients() {
  while (!stopping_.load()) {
    std::optional<TcpStream> stream = listener_.accept_wait(wake_);
    // Reap finished clients so a long-lived router does not accumulate one
    // record per client ever served.
    {
      const MutexLock lock(clients_mutex_);
      for (auto it = clients_.begin(); it != clients_.end();) {
        if ((*it)->done.load()) {
          (*it)->reader.join();
          it = clients_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!stream) continue;  // woken (stop) or transient accept failure
    auto conn = std::make_unique<ClientConn>();
    conn->stream = std::move(*stream);
    ClientConn* raw = conn.get();
    {
      const MutexLock lock(clients_mutex_);
      clients_.push_back(std::move(conn));
    }
    raw->reader = std::thread([this, raw] { serve_client(raw); });
  }
}

void ShardRouter::serve_client(ClientConn* conn) {
  conn->upstreams.resize(options_.shard_ports.size());
  conn->relays.resize(options_.shard_ports.size());
  try {
    while (std::optional<std::string> line = conn->stream.read_line()) {
      if (line->empty()) continue;
      const std::size_t shard = shard_of_line(*line);
      TcpStream& upstream = conn->upstreams[shard];
      if (!upstream.valid()) {
        upstream = TcpStream::connect(options_.shard_host,
                                      options_.shard_ports[shard]);
        conn->relays[shard] =
            std::thread([this, conn, shard] { relay_loop(conn, shard); });
      }
      upstream.write_all(*line + "\n");
    }
  } catch (const SocketError& e) {
    // The client vanished or a shard is unreachable: drop the connection
    // (in-flight responses from other shards still relay until EOF below).
    log_line(std::string("client dropped: ") + e.what());
  }
  // Propagate the client's EOF to every shard as a half-close; the shards
  // finish what is in flight, respond, and close — which ends the relays.
  for (TcpStream& upstream : conn->upstreams)
    if (upstream.valid()) upstream.shutdown_write();
  for (std::thread& relay : conn->relays)
    if (relay.joinable()) relay.join();
  conn->done.store(true);
}

void ShardRouter::relay_loop(ClientConn* conn, std::size_t shard) {
  try {
    while (std::optional<std::string> line =
               conn->upstreams[shard].read_line()) {
      const MutexLock lock(conn->write_mutex);
      conn->stream.write_all(*line + "\n");
    }
  } catch (const SocketError&) {
    // Either side vanished; remaining responses from this shard are moot.
  }
}

void ShardRouter::log_line(const std::string& line) {
  if (!options_.log) return;
  const MutexLock lock(log_mutex_);
  *options_.log << "[prpart route] " << line << "\n";
  options_.log->flush();
}

}  // namespace prpart::server
