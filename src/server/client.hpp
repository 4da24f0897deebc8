#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "server/protocol.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace prpart::server {

/// A decoded response envelope. `raw_result` preserves the server's exact
/// byte encoding of the `result` field so callers can compare or archive
/// responses without a decode/re-encode round trip.
struct ClientResponse {
  std::string id;
  bool ok = false;
  json::Value result;          ///< meaningful when ok
  std::string raw_result;      ///< result field verbatim (dump of `result`)
  std::string error_code;      ///< meaningful when !ok (docs/protocol.md)
  std::string error_message;
};

/// Blocking client for the prpart serving protocol: one TCP connection,
/// newline-delimited JSON requests, one response per request in order.
/// Not thread-safe; use one Client per thread (the server multiplexes).
class Client {
 public:
  /// Connects to the server. Throws SocketError when the peer is absent.
  Client(const std::string& host, std::uint16_t port);

  /// Submits one partition job and waits for its response. Fields of
  /// `request` map 1:1 onto the wire format; a zero `timeout_ms` defers to
  /// the server's default deadline.
  ClientResponse submit(const PartitionRequest& request);

  /// Runs the static diagnostics engine over one design on the server; only
  /// the target half of `request` is sent. Always ok (with diagnostics in
  /// the result) unless the request itself is malformed.
  ClientResponse analyze(const PartitionRequest& request);

  /// Partitions a design and replays a transition trace against the
  /// proposed scheme (docs/protocol.md, `simulate`).
  ClientResponse simulate(const SimulateRequest& request);

  /// Partitions a design and re-ranks the enumerated top-K schemes by
  /// placement-true floorplan cost (docs/protocol.md, `floorplan`).
  ClientResponse floorplan(const FloorplanRequest& request);

  /// Fetches the server's stats snapshot.
  ClientResponse stats(const std::string& id = "stats");

  /// Liveness probe.
  ClientResponse ping(const std::string& id = "ping");

  /// Fetches the scrapeable metrics document (docs/protocol.md, `metrics`);
  /// with `text` the result is the flattened text exposition as a string.
  ClientResponse metrics(const std::string& id = "metrics",
                         bool text = false);

  /// Escape hatch: sends an arbitrary request object and decodes the
  /// response (used by the protocol tests to exercise error paths).
  ClientResponse roundtrip(const json::Value& request);

  /// Interim `queued` backpressure notices skipped while waiting for final
  /// responses (docs/protocol.md): observability for tests and tools.
  std::uint64_t queued_notices_seen() const { return queued_notices_seen_; }

 private:
  ClientResponse exchange(const std::string& line);

  TcpStream stream_;
  std::uint64_t queued_notices_seen_ = 0;
};

/// Builds the wire form of a partition request (shared by Client::submit
/// and the tests that drive a raw socket). Like the three below, it is
/// derived from the field declarations in protocol.hpp and sends only the
/// fields that differ from the server's defaults.
json::Value partition_request_json(const PartitionRequest& request);

/// Builds the wire form of an analyze request: the target half of
/// `request`.
json::Value analyze_request_json(const PartitionRequest& request);

/// Builds the wire form of a simulate request.
json::Value simulate_request_json(const SimulateRequest& request);

/// Builds the wire form of a floorplan request.
json::Value floorplan_request_json(const FloorplanRequest& request);

}  // namespace prpart::server
