// The request schema: every field is declared once in protocol.hpp, and the
// wire parser, the Client encoder and the cache key derive from those
// declarations. These tests walk the declarations themselves, so a field
// added later is covered without touching them.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "design/io_xml.hpp"
#include "server/client.hpp"
#include "server/hash.hpp"
#include "server/protocol.hpp"
#include "synth/ip_library.hpp"

namespace prpart::server {
namespace {

/// Sets the field named `wire` (every field when empty) to a value that
/// differs from the default; a design field gets `design_xml`.
struct Perturb {
  std::string_view wire;
  std::string design_xml;

  bool hit(const Field& f) const { return wire.empty() || f.wire == wire; }

  void operator()(const Field& f, std::string& s) const {
    if (hit(f)) s = f.rule == Rule::kRequired ? design_xml : "XC5VFX70T";
  }
  template <Count T>
  void operator()(const Field& f, T& n) const {
    if (hit(f)) ++n;
  }
  void operator()(const Field& f, bool& b) const {
    if (hit(f)) b = !b;
  }
  void operator()(const Field& f, std::optional<ResourceVec>& r) const {
    if (hit(f)) r = ResourceVec{17000, 140, 160};
  }
};

/// Names the declared fields whose values differ between two requests.
struct Differences {
  std::vector<std::string> names;

  template <class T>
  void operator()(const Field& f, const T& a, const T& b) {
    if (!(a == b)) names.emplace_back(f.wire);
  }
};

const std::string& receiver_xml() {
  static const std::string xml =
      design_to_xml(synth::wireless_receiver_design());
  return xml;
}

PartitionRequest base_request() {
  PartitionRequest p;
  p.id = "job";
  p.design_xml = receiver_xml();
  p.options = default_partitioner_options();
  return p;
}

/// The key the server files a job under (Server::admit_job).
std::string composed_key(const PartitionRequest& p,
                         const std::optional<SimulateParams>& simulate = {},
                         const std::optional<FloorplanParams>& floorplan = {}) {
  return job_cache_key(design_from_xml(p.design_xml),
                       job_target(p, simulate, floorplan), p.options);
}

/// Perturbs only the field named `wire`; a design becomes the modified
/// receiver.
Perturb perturb_only(std::string_view wire) {
  return Perturb{wire,
                 design_to_xml(synth::wireless_receiver_modified_design())};
}

TEST(RequestSchema, CacheStringsKeepTheirBytes) {
  EXPECT_EQ(SimulateParams{}.cache_string(),
            "simulate steps=100000 seed=1 prefetch=0 uniform=0 arrival=0 "
            "floorplan=0");
  EXPECT_EQ(FloorplanParams{}.cache_string(),
            "floorplan top_k=5 strategy=best-fit anneal=1 anneal_seed=1");
  SimulateParams s;
  s.steps = 7;
  s.seed = 9;
  s.prefetch = s.uniform = s.floorplan = true;
  s.inter_arrival_ns = 55;
  EXPECT_EQ(s.cache_string(),
            "simulate steps=7 seed=9 prefetch=1 uniform=1 arrival=55 "
            "floorplan=1");
  FloorplanParams f;
  f.top_k = 2;
  f.first_fit = true;
  f.anneal = false;
  f.anneal_seed = 4;
  EXPECT_EQ(f.cache_string(),
            "floorplan top_k=2 strategy=first-fit anneal=0 anneal_seed=4");
}

TEST(RequestSchema, JobCacheKeyDigestsArePinned) {
  // Existing store segments are named by these digests: a change here
  // orphans every entry a running deployment has stored.
  const PartitionRequest p = base_request();
  EXPECT_EQ(composed_key(p), "dda0857cfbb3f59cda3ab2775fe26c2c");
  EXPECT_EQ(composed_key(p, SimulateParams{}),
            "4efb705730920c2c0526852f31db283c");
  EXPECT_EQ(composed_key(p, std::nullopt, FloorplanParams{}),
            "126500efaa7c024b3681013ee8d5f1db");
  PartitionRequest device = p;
  device.device = "XC5VFX70T";
  EXPECT_EQ(composed_key(device), "d95cd1625e29d8e016fdcf96005f0930");
  PartitionRequest budget = p;
  budget.budget = ResourceVec{6800, 64, 150};
  EXPECT_EQ(composed_key(budget), "ad6b1fff227f80849bef49ee6f245074");
}

TEST(RequestSchema, EveryAnswerFieldChangesThePartitionKey) {
  const PartitionRequest base = base_request();
  const std::string key = composed_key(base);
  std::set<std::string> neutral;
  auto check = [&](const Field& f) {
    const Perturb perturb = perturb_only(f.wire);
    PartitionRequest p = base;
    PartitionRequest::target_fields(perturb, p);
    PartitionRequest::effort_fields(perturb, p);
    Differences d;
    PartitionRequest::target_fields(d, base, p);
    PartitionRequest::effort_fields(d, base, p);
    ASSERT_EQ(d.names, std::vector<std::string>{std::string(f.wire)});
    if (f.cache.empty()) {
      EXPECT_EQ(composed_key(p), key) << f.wire;
      neutral.emplace(f.wire);
    } else {
      EXPECT_NE(composed_key(p), key) << f.wire;
    }
  };
  PartitionRequest::target_fields(check);
  PartitionRequest::effort_fields(check);
  EXPECT_EQ(neutral, (std::set<std::string>{"threads", "timeout_ms"}));

  PartitionRequest other_id = base;
  other_id.id = "another";
  EXPECT_EQ(composed_key(other_id), key);
}

/// Every field of a params half changes the answer, so perturbing any one
/// of them must change `key_of(params)`.
template <class Params, class KeyOf>
void expect_every_field_changes_the_key(KeyOf key_of) {
  const std::string key = key_of(Params{});
  std::size_t fields = 0;
  auto check = [&](const Field& f) {
    ++fields;
    const Perturb perturb = perturb_only(f.wire);
    Params params;
    Params::fields(perturb, params);
    EXPECT_FALSE(f.cache.empty()) << f.wire;
    EXPECT_NE(key_of(params), key) << f.wire;
  };
  Params::fields(check);
  EXPECT_GT(fields, 0u);
}

TEST(RequestSchema, EverySimulateFieldChangesTheKey) {
  const PartitionRequest p = base_request();
  expect_every_field_changes_the_key<SimulateParams>(
      [&](const SimulateParams& params) { return composed_key(p, params); });
}

TEST(RequestSchema, EveryFloorplanFieldChangesTheKey) {
  const PartitionRequest p = base_request();
  expect_every_field_changes_the_key<FloorplanParams>(
      [&](const FloorplanParams& params) {
        return composed_key(p, std::nullopt, params);
      });
}

/// A request with every declared field away from its default; the budget
/// variant drops the device for a budget (the two exclude each other).
PartitionRequest everything_set(bool budget) {
  const Perturb all{"", "<x/>"};
  PartitionRequest p = base_request();
  PartitionRequest::target_fields(all, p);
  PartitionRequest::effort_fields(all, p);
  if (budget)
    p.device.clear();
  else
    p.budget.reset();
  return p;
}

void expect_same_partition(const PartitionRequest& sent,
                           const PartitionRequest& got, bool effort) {
  Differences d;
  PartitionRequest::target_fields(d, sent, got);
  if (effort) PartitionRequest::effort_fields(d, sent, got);
  EXPECT_TRUE(d.names.empty()) << ::testing::PrintToString(d.names);
  EXPECT_EQ(got.id, sent.id);
}

/// A request at every default but its design.
PartitionRequest defaults_set() {
  PartitionRequest p = base_request();
  p.design_xml = "<x/>";
  return p;
}

TEST(RequestSchema, PartitionEncoderRoundTrips) {
  for (const PartitionRequest& sent :
       {defaults_set(), everything_set(false), everything_set(true)}) {
    const Request got = parse_request(partition_request_json(sent).dump());
    ASSERT_EQ(got.type, Request::Type::Partition);
    EXPECT_EQ(got.id, sent.id);
    expect_same_partition(sent, got.partition, true);
  }
  // Defaults send nothing but the envelope and the design.
  EXPECT_EQ(partition_request_json(defaults_set()).dump(),
            "{\"type\":\"partition\",\"id\":\"job\",\"design_xml\":\"<x/>\"}");
}

TEST(RequestSchema, AnalyzeEncoderRoundTrips) {
  for (const PartitionRequest& sent :
       {defaults_set(), everything_set(false), everything_set(true)}) {
    const Request got = parse_request(analyze_request_json(sent).dump());
    ASSERT_EQ(got.type, Request::Type::Analyze);
    expect_same_partition(sent, got.partition, false);
  }
}

TEST(RequestSchema, SimulateEncoderRoundTrips) {
  const Perturb perturb{"", ""};
  SimulateParams all;
  SimulateParams::fields(perturb, all);
  for (const SimulateRequest& sent :
       {SimulateRequest{defaults_set(), SimulateParams{}},
        SimulateRequest{everything_set(true), all}}) {
    const Request got = parse_request(simulate_request_json(sent).dump());
    ASSERT_EQ(got.type, Request::Type::Simulate);
    expect_same_partition(sent.partition, got.simulate.partition, true);
    Differences d;
    SimulateParams::fields(d, sent.params, got.simulate.params);
    EXPECT_TRUE(d.names.empty()) << ::testing::PrintToString(d.names);
  }
}

TEST(RequestSchema, FloorplanEncoderRoundTrips) {
  const Perturb perturb{"", ""};
  FloorplanParams all;
  FloorplanParams::fields(perturb, all);
  for (const FloorplanRequest& sent :
       {FloorplanRequest{defaults_set(), FloorplanParams{}},
        FloorplanRequest{everything_set(false), all}}) {
    const Request got = parse_request(floorplan_request_json(sent).dump());
    ASSERT_EQ(got.type, Request::Type::Floorplan);
    expect_same_partition(sent.partition, got.floorplan.partition, true);
    Differences d;
    FloorplanParams::fields(d, sent.params, got.floorplan.params);
    EXPECT_TRUE(d.names.empty()) << ::testing::PrintToString(d.names);
  }
}

}  // namespace
}  // namespace prpart::server
