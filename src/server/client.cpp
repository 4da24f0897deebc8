#include "server/client.hpp"

#include "util/status.hpp"

namespace prpart::server {

namespace {

Request request_of(Request::Type type, const std::string& id) {
  Request request;
  request.type = type;
  request.id = id;
  return request;
}

}  // namespace

json::Value partition_request_json(const PartitionRequest& request) {
  Request r = request_of(Request::Type::Partition, request.id);
  r.partition = request;
  return request_json(r);
}

json::Value analyze_request_json(const PartitionRequest& request) {
  Request r = request_of(Request::Type::Analyze, request.id);
  r.partition = request;
  return request_json(r);
}

json::Value simulate_request_json(const SimulateRequest& request) {
  Request r = request_of(Request::Type::Simulate, request.partition.id);
  r.simulate = request;
  return request_json(r);
}

json::Value floorplan_request_json(const FloorplanRequest& request) {
  Request r = request_of(Request::Type::Floorplan, request.partition.id);
  r.floorplan = request;
  return request_json(r);
}

Client::Client(const std::string& host, std::uint16_t port)
    : stream_(TcpStream::connect(host, port)) {}

ClientResponse Client::submit(const PartitionRequest& request) {
  return roundtrip(partition_request_json(request));
}

ClientResponse Client::analyze(const PartitionRequest& request) {
  return roundtrip(analyze_request_json(request));
}

ClientResponse Client::simulate(const SimulateRequest& request) {
  return roundtrip(simulate_request_json(request));
}

ClientResponse Client::floorplan(const FloorplanRequest& request) {
  return roundtrip(floorplan_request_json(request));
}

ClientResponse Client::stats(const std::string& id) {
  return roundtrip(request_json(request_of(Request::Type::Stats, id)));
}

ClientResponse Client::ping(const std::string& id) {
  return roundtrip(request_json(request_of(Request::Type::Ping, id)));
}

ClientResponse Client::metrics(const std::string& id, bool text) {
  Request request = request_of(Request::Type::Metrics, id);
  request.metrics_text = text;
  return roundtrip(request_json(request));
}

ClientResponse Client::roundtrip(const json::Value& request) {
  return exchange(request.dump());
}

ClientResponse Client::exchange(const std::string& line) {
  stream_.write_all(line + "\n");
  json::Value doc;
  while (true) {
    const std::optional<std::string> reply = stream_.read_line();
    if (!reply) throw SocketError("server closed the connection mid-request");
    doc = json::parse(*reply);
    // Interim `queued` backpressure notices carry no `ok` field; the final
    // response for the same id follows on the same connection.
    if (!doc.find("ok") && doc.find("queued")) {
      ++queued_notices_seen_;
      continue;
    }
    break;
  }
  ClientResponse response;
  if (const json::Value* id = doc.find("id"); id && id->is_string())
    response.id = id->as_string();
  response.ok = doc.at("ok").as_bool();
  if (response.ok) {
    response.result = doc.at("result");
    response.raw_result = response.result.dump();
  } else {
    const json::Value& error = doc.at("error");
    response.error_code = error.at("code").as_string();
    response.error_message = error.at("message").as_string();
  }
  return response;
}

}  // namespace prpart::server
