#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/status.hpp"

namespace prpart::server {
namespace {

Design small_design() {
  std::vector<Module> modules = {
      {"Filter", {{"LowPass", {120, 4, 2}}, {"HighPass", {150, 2, 6}}}},
      {"Codec", {{"Fast", {80, 8, 0}}, {"Dense", {60, 12, 1}}}},
  };
  std::vector<Configuration> configs = {
      {"Receive", {1, 2}},
      {"Transmit", {2, 1}},
  };
  return Design("radio", {40, 1, 0}, std::move(modules), std::move(configs));
}

TEST(ProtocolTest, ErrorCodeNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::BadRequest), "bad_request");
  EXPECT_STREQ(error_code_name(ErrorCode::Infeasible), "infeasible");
  EXPECT_STREQ(error_code_name(ErrorCode::Timeout), "timeout");
  EXPECT_STREQ(error_code_name(ErrorCode::Overloaded), "overloaded");
  EXPECT_STREQ(error_code_name(ErrorCode::Internal), "internal");
}

TEST(ProtocolTest, ParsesPingAndStats) {
  const Request ping = parse_request("{\"type\":\"ping\",\"id\":\"p1\"}");
  EXPECT_EQ(ping.type, Request::Type::Ping);
  EXPECT_EQ(ping.id, "p1");
  const Request stats = parse_request("{\"type\":\"stats\"}");
  EXPECT_EQ(stats.type, Request::Type::Stats);
  EXPECT_EQ(stats.id, "");
}

TEST(ProtocolTest, PartitionRequestDefaultsMatchTheCli) {
  const Request r = parse_request(
      "{\"type\":\"partition\",\"id\":\"j\",\"design_xml\":\"<x/>\"}");
  ASSERT_EQ(r.type, Request::Type::Partition);
  const PartitionerOptions defaults = default_partitioner_options();
  EXPECT_EQ(r.partition.options.search.max_candidate_sets,
            defaults.search.max_candidate_sets);
  EXPECT_EQ(r.partition.options.search.max_move_evaluations,
            defaults.search.max_move_evaluations);
  EXPECT_EQ(r.partition.options.search.threads, 0u);
  EXPECT_EQ(r.partition.timeout_ms, 0u);
  EXPECT_EQ(r.partition.target_string(), "auto");
}

TEST(ProtocolTest, PartitionRequestAllFields) {
  const Request r = parse_request(
      "{\"type\":\"partition\",\"id\":\"j2\",\"design_xml\":\"<x/>\","
      "\"device\":\"XC5VLX30T\",\"candidate_sets\":7,\"evals\":1234,"
      "\"threads\":3,\"timeout_ms\":250}");
  EXPECT_EQ(r.partition.device, "XC5VLX30T");
  EXPECT_EQ(r.partition.options.search.max_candidate_sets, 7u);
  EXPECT_EQ(r.partition.options.search.max_move_evaluations, 1234u);
  EXPECT_EQ(r.partition.options.search.threads, 3u);
  EXPECT_EQ(r.partition.timeout_ms, 250u);
  EXPECT_EQ(r.partition.target_string(), "device XC5VLX30T");
}

TEST(ProtocolTest, BudgetTripleParses) {
  const Request r = parse_request(
      "{\"type\":\"partition\",\"design_xml\":\"<x/>\","
      "\"budget\":[100,20,30]}");
  ASSERT_TRUE(r.partition.budget.has_value());
  EXPECT_EQ(r.partition.budget->clbs, 100u);
  EXPECT_EQ(r.partition.budget->brams, 20u);
  EXPECT_EQ(r.partition.budget->dsps, 30u);
  EXPECT_EQ(r.partition.target_string(), "budget 100,20,30");
}

TEST(ProtocolTest, AnalyzeRequestParses) {
  const Request r = parse_request(
      "{\"type\":\"analyze\",\"id\":\"a1\",\"design_xml\":\"<x/>\"}");
  ASSERT_EQ(r.type, Request::Type::Analyze);
  EXPECT_EQ(r.partition.id, "a1");
  EXPECT_EQ(r.partition.design_xml, "<x/>");
  EXPECT_TRUE(r.partition.device.empty());
  EXPECT_FALSE(r.partition.budget.has_value());
}

TEST(ProtocolTest, AnalyzeRequestWithTargets) {
  const Request dev = parse_request(
      "{\"type\":\"analyze\",\"design_xml\":\"<x/>\","
      "\"device\":\"XC5VLX30\"}");
  EXPECT_EQ(dev.partition.device, "XC5VLX30");

  const Request bud = parse_request(
      "{\"type\":\"analyze\",\"design_xml\":\"<x/>\","
      "\"budget\":[100,20,30]}");
  ASSERT_TRUE(bud.partition.budget.has_value());
  EXPECT_EQ(bud.partition.budget->clbs, 100u);
  EXPECT_EQ(bud.partition.budget->brams, 20u);
  EXPECT_EQ(bud.partition.budget->dsps, 30u);
}

TEST(ProtocolTest, MalformedAnalyzeRequestsThrow) {
  // No design.
  EXPECT_THROW(parse_request("{\"type\":\"analyze\"}"), ParseError);
  EXPECT_THROW(parse_request("{\"type\":\"analyze\",\"design_xml\":\"\"}"),
               ParseError);
  // Unknown fields fail loudly — analyze takes no search options.
  EXPECT_THROW(parse_request("{\"type\":\"analyze\",\"design_xml\":\"<x/>\","
                             "\"evals\":1}"),
               ParseError);
  // Conflicting targets.
  EXPECT_THROW(parse_request("{\"type\":\"analyze\",\"design_xml\":\"<x/>\","
                             "\"device\":\"D\",\"budget\":[1,2,3]}"),
               ParseError);
  // Budget must be a triple.
  EXPECT_THROW(parse_request("{\"type\":\"analyze\",\"design_xml\":\"<x/>\","
                             "\"budget\":[1]}"),
               ParseError);
}

TEST(ProtocolTest, MalformedRequestsThrow) {
  EXPECT_THROW(parse_request("not json"), ParseError);
  EXPECT_THROW(parse_request("[1]"), ParseError);
  EXPECT_THROW(parse_request("{\"id\":\"x\"}"), ParseError);  // no type
  EXPECT_THROW(parse_request("{\"type\":\"bogus\"}"), ParseError);
  // Every type rejects fields it does not declare, ping and stats too.
  EXPECT_THROW(parse_request("{\"type\":\"ping\",\"x\":1}"), ParseError);
  EXPECT_THROW(parse_request("{\"type\":\"stats\",\"x\":1}"), ParseError);
  // Partition without a design.
  EXPECT_THROW(parse_request("{\"type\":\"partition\"}"), ParseError);
  EXPECT_THROW(
      parse_request("{\"type\":\"partition\",\"design_xml\":\"\"}"),
      ParseError);
  // Unknown fields fail loudly instead of being ignored.
  EXPECT_THROW(parse_request("{\"type\":\"partition\",\"design_xml\":\"<x/>\","
                             "\"evalz\":1}"),
               ParseError);
  // Conflicting targets.
  EXPECT_THROW(parse_request("{\"type\":\"partition\",\"design_xml\":\"<x/>\","
                             "\"device\":\"D\",\"budget\":[1,2,3]}"),
               ParseError);
  // Budget must be a triple.
  EXPECT_THROW(parse_request("{\"type\":\"partition\",\"design_xml\":\"<x/>\","
                             "\"budget\":[1,2]}"),
               ParseError);
}

TEST(ProtocolTest, OkResponseSplicesThePayloadVerbatim) {
  const std::string payload = "{\"x\":1,\"y\":[true,null]}";
  const std::string line = ok_response("req-1", payload);
  EXPECT_EQ(line, "{\"id\":\"req-1\",\"ok\":true,\"result\":" + payload + "}");
  const json::Value doc = json::parse(line);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("result").dump(), payload);
}

TEST(ProtocolTest, ErrorResponseShape) {
  const json::Value doc =
      json::parse(error_response("req-2", ErrorCode::Overloaded, "full"));
  EXPECT_EQ(doc.at("id").as_string(), "req-2");
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(doc.at("error").at("message").as_string(), "full");
}

TEST(ProtocolTest, ResultJsonFeasibleShape) {
  const Design design = small_design();
  PartitionerOptions options = default_partitioner_options();
  options.search.max_move_evaluations = 100'000;
  // Tight enough that the fully-static implementation cannot fit, forcing a
  // scheme with at least one reconfigurable region.
  const ResourceVec budget{400, 30, 12};
  const PartitionerResult result = partition_design(design, budget, options);
  ASSERT_TRUE(result.feasible);

  const json::Value v = partition_result_json(design, result, "", budget);
  EXPECT_EQ(v.at("design").as_string(), "radio");
  EXPECT_TRUE(v.at("device").is_null());
  EXPECT_TRUE(v.at("feasible").as_bool());
  EXPECT_EQ(v.at("budget").at("clbs").as_u64(), 400u);
  const json::Value& proposed = v.at("proposed");
  EXPECT_GT(proposed.at("total_frames").as_u64(), 0u);
  EXPECT_GE(proposed.at("regions").items().size(), 1u);
  for (const char* name : {"modular", "single_region", "static"})
    EXPECT_TRUE(v.at("baselines").at(name).is_object()) << name;
  // Only the deterministic core of the stats: scheduling-dependent counters
  // would break byte-identity across thread counts.
  EXPECT_EQ(v.at("stats").find("units_replayed"), nullptr);
  EXPECT_EQ(v.at("stats").find("cache_hits"), nullptr);
  EXPECT_GT(v.at("stats").at("move_evaluations").as_u64(), 0u);
}

TEST(ProtocolTest, ResultJsonInfeasibleShape) {
  const Design design = small_design();
  const ResourceVec budget{10, 0, 0};
  const PartitionerResult result =
      partition_design(design, budget, default_partitioner_options());
  ASSERT_FALSE(result.feasible);
  const json::Value v = partition_result_json(design, result, "", budget);
  EXPECT_FALSE(v.at("feasible").as_bool());
  EXPECT_TRUE(v.at("proposed").is_null());
  EXPECT_GT(v.at("lower_bound").at("clbs").as_u64(), 0u);
}

TEST(ProtocolTest, ResultJsonIsDeterministic) {
  const Design design = small_design();
  PartitionerOptions options = default_partitioner_options();
  options.search.max_move_evaluations = 100'000;
  const ResourceVec budget{4000, 60, 60};
  const std::string a =
      partition_result_json(design, partition_design(design, budget, options),
                            "", budget)
          .dump();
  options.search.threads = 4;
  const std::string b =
      partition_result_json(design, partition_design(design, budget, options),
                            "", budget)
          .dump();
  EXPECT_EQ(a, b);  // thread count must not leak into the encoding
}

TEST(ProtocolTest, SimulateRequestDefaults) {
  const Request r = parse_request(
      "{\"type\":\"simulate\",\"id\":\"s\",\"design_xml\":\"<x/>\"}");
  ASSERT_EQ(r.type, Request::Type::Simulate);
  EXPECT_EQ(r.simulate.partition.id, "s");
  EXPECT_EQ(r.simulate.partition.target_string(), "auto");
  EXPECT_EQ(r.simulate.params.steps, 100'000u);
  EXPECT_EQ(r.simulate.params.seed, 1u);
  EXPECT_FALSE(r.simulate.params.prefetch);
  EXPECT_FALSE(r.simulate.params.uniform);
  EXPECT_EQ(r.simulate.params.inter_arrival_ns, 0u);
}

TEST(ProtocolTest, SimulateRequestAllFields) {
  const Request r = parse_request(
      "{\"type\":\"simulate\",\"id\":\"s2\",\"design_xml\":\"<x/>\","
      "\"device\":\"XC5VLX30T\",\"evals\":5000,\"steps\":250,\"seed\":9,"
      "\"prefetch\":true,\"uniform\":false,\"inter_arrival_ns\":70000}");
  ASSERT_EQ(r.type, Request::Type::Simulate);
  EXPECT_EQ(r.simulate.partition.device, "XC5VLX30T");
  EXPECT_EQ(r.simulate.partition.options.search.max_move_evaluations, 5000u);
  EXPECT_EQ(r.simulate.params.steps, 250u);
  EXPECT_EQ(r.simulate.params.seed, 9u);
  EXPECT_TRUE(r.simulate.params.prefetch);
  EXPECT_EQ(r.simulate.params.inter_arrival_ns, 70'000u);
}

TEST(ProtocolTest, MalformedSimulateRequestsThrow) {
  // No design.
  EXPECT_THROW(parse_request("{\"type\":\"simulate\"}"), ParseError);
  // A zero-step trace has nothing to replay.
  EXPECT_THROW(parse_request("{\"type\":\"simulate\",\"design_xml\":\"<x/>\","
                             "\"steps\":0}"),
               ParseError);
  // Unknown fields fail loudly here too.
  EXPECT_THROW(parse_request("{\"type\":\"simulate\",\"design_xml\":\"<x/>\","
                             "\"stepz\":5}"),
               ParseError);
  // Trace knobs are rejected on plain partition requests.
  EXPECT_THROW(parse_request("{\"type\":\"partition\",\"design_xml\":\"<x/>\","
                             "\"steps\":10}"),
               ParseError);
}

TEST(ProtocolTest, SimulateCacheStringSeparatesEveryKnob) {
  SimulateParams a;
  std::set<std::string> keys = {a.cache_string()};
  SimulateParams b = a;
  b.steps = 7;
  keys.insert(b.cache_string());
  SimulateParams c = a;
  c.seed = 2;
  keys.insert(c.cache_string());
  SimulateParams d = a;
  d.prefetch = true;
  keys.insert(d.cache_string());
  SimulateParams e = a;
  e.uniform = true;
  keys.insert(e.cache_string());
  SimulateParams f = a;
  f.inter_arrival_ns = 5;
  keys.insert(f.cache_string());
  EXPECT_EQ(keys.size(), 6u);  // every knob lands in the cache key
}

TEST(ProtocolTest, SimulateSetupIsSeedDeterministic) {
  SimulateParams params;
  params.steps = 300;
  params.seed = 4;
  const SimulateSetup a = simulate_setup(5, params);
  const SimulateSetup b = simulate_setup(5, params);
  EXPECT_EQ(a.source, "markov");
  EXPECT_EQ(a.trace.transitions(), 300u);
  EXPECT_EQ(a.trace.configs, b.trace.configs);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_DOUBLE_EQ(a.env.probability(i, j), b.env.probability(i, j));

  params.seed = 5;
  const SimulateSetup c = simulate_setup(5, params);
  EXPECT_NE(a.trace.configs, c.trace.configs);

  params.uniform = true;
  const SimulateSetup u = simulate_setup(5, params);
  EXPECT_EQ(u.source, "uniform");
  EXPECT_EQ(u.trace.transitions(), 20u);  // 5 * 4 ordered pairs
}

TEST(ProtocolTest, SimulateResultJsonShape) {
  const Design design = small_design();
  PartitionerOptions options = default_partitioner_options();
  options.search.max_move_evaluations = 100'000;
  // Tight enough to force a reconfigurable region (see ResultJsonFeasible-
  // Shape): a fully static proposal would load zero frames.
  const ResourceVec budget{400, 30, 12};
  const PartitionerResult result = partition_design(design, budget, options);
  ASSERT_TRUE(result.feasible);

  SimulateParams params;
  params.steps = 50;
  const SimulateSetup setup =
      simulate_setup(design.configurations().size(), params);
  sim::SimulationOptions sopt;
  const sim::SimulationResult sr =
      sim::simulate_scheme(design, result.proposed.scheme,
                           result.proposed.eval, setup.trace, sopt);
  const json::Value v = simulate_result_json(
      design, "", budget, params, setup.source, setup.trace.transitions(),
      {SimulatedScheme{"proposed", result.proposed.eval.total_frames,
                       result.proposed.eval.worst_frames, sr}});
  EXPECT_EQ(v.at("design").as_string(), "radio");
  EXPECT_TRUE(v.at("device").is_null());
  EXPECT_EQ(v.at("trace").at("source").as_string(), "markov");
  EXPECT_EQ(v.at("trace").at("transitions").as_u64(), 50u);
  EXPECT_FALSE(v.at("options").at("prefetch").as_bool());
  const json::Value& row = v.at("schemes").items().at(0);
  EXPECT_EQ(row.at("label").as_string(), "proposed");
  EXPECT_EQ(row.at("transitions").as_u64(), 50u);
  EXPECT_EQ(row.at("total_frames").as_u64(),
            result.proposed.eval.total_frames);
  EXPECT_GT(row.at("frames_loaded").as_u64(), 0u);
  EXPECT_GE(row.at("max_latency_ns").as_u64(), row.at("p50_latency_ns").as_u64());
  // Deterministic encoding, double field included.
  EXPECT_EQ(v.dump(), simulate_result_json(design, "", budget, params,
                                           setup.source,
                                           setup.trace.transitions(),
                                           {SimulatedScheme{
                                               "proposed",
                                               result.proposed.eval.total_frames,
                                               result.proposed.eval.worst_frames,
                                               sr}})
                          .dump());
}

TEST(ProtocolTest, FloorplanRequestDefaults) {
  const Request r = parse_request(
      "{\"type\":\"floorplan\",\"id\":\"f\",\"design_xml\":\"<x/>\"}");
  ASSERT_EQ(r.type, Request::Type::Floorplan);
  EXPECT_EQ(r.floorplan.partition.id, "f");
  EXPECT_EQ(r.floorplan.partition.target_string(), "auto");
  EXPECT_EQ(r.floorplan.params.top_k, 5u);
  EXPECT_FALSE(r.floorplan.params.first_fit);
  EXPECT_TRUE(r.floorplan.params.anneal);
  EXPECT_EQ(r.floorplan.params.anneal_seed, 1u);
}

TEST(ProtocolTest, FloorplanRequestAllFields) {
  const Request r = parse_request(
      "{\"type\":\"floorplan\",\"id\":\"f2\",\"design_xml\":\"<x/>\","
      "\"device\":\"XC5VFX70T\",\"evals\":5000,\"top_k\":3,"
      "\"strategy\":\"first-fit\",\"anneal\":false,\"anneal_seed\":9}");
  ASSERT_EQ(r.type, Request::Type::Floorplan);
  EXPECT_EQ(r.floorplan.partition.device, "XC5VFX70T");
  EXPECT_EQ(r.floorplan.partition.options.search.max_move_evaluations, 5000u);
  EXPECT_EQ(r.floorplan.params.top_k, 3u);
  EXPECT_TRUE(r.floorplan.params.first_fit);
  EXPECT_FALSE(r.floorplan.params.anneal);
  EXPECT_EQ(r.floorplan.params.anneal_seed, 9u);
  const FloorplanRerankOptions opt = r.floorplan.params.rerank_options();
  EXPECT_EQ(opt.top_k, 3u);
  EXPECT_EQ(opt.placement.strategy, PlacementStrategy::FirstFit);
  EXPECT_FALSE(opt.placement.use_annealer);
  EXPECT_EQ(opt.placement.annealing.seed, 9u);
}

TEST(ProtocolTest, MalformedFloorplanRequestsThrow) {
  // No design.
  EXPECT_THROW(parse_request("{\"type\":\"floorplan\"}"), ParseError);
  // Zero candidates would veto everything vacuously.
  EXPECT_THROW(parse_request("{\"type\":\"floorplan\",\"design_xml\":\"<x/>\","
                             "\"top_k\":0}"),
               ParseError);
  // Strategy names are closed.
  EXPECT_THROW(parse_request("{\"type\":\"floorplan\",\"design_xml\":\"<x/>\","
                             "\"strategy\":\"worst-fit\"}"),
               ParseError);
  // Unknown fields fail loudly, and floorplan knobs are rejected on plain
  // partition requests.
  EXPECT_THROW(parse_request("{\"type\":\"floorplan\",\"design_xml\":\"<x/>\","
                             "\"top_q\":3}"),
               ParseError);
  EXPECT_THROW(parse_request("{\"type\":\"partition\",\"design_xml\":\"<x/>\","
                             "\"top_k\":3}"),
               ParseError);
}

TEST(ProtocolTest, SimulateRequestParsesFloorplanFlag) {
  const Request r = parse_request(
      "{\"type\":\"simulate\",\"id\":\"s\",\"design_xml\":\"<x/>\","
      "\"floorplan\":true}");
  ASSERT_EQ(r.type, Request::Type::Simulate);
  EXPECT_TRUE(r.simulate.params.floorplan);
  SimulateParams plain;
  EXPECT_NE(r.simulate.params.cache_string(), plain.cache_string());
}

TEST(ProtocolTest, FloorplanCacheStringSeparatesEveryKnob) {
  FloorplanParams a;
  std::set<std::string> keys = {a.cache_string()};
  FloorplanParams b = a;
  b.top_k = 7;
  keys.insert(b.cache_string());
  FloorplanParams c = a;
  c.first_fit = true;
  keys.insert(c.cache_string());
  FloorplanParams d = a;
  d.anneal = false;
  keys.insert(d.cache_string());
  FloorplanParams e = a;
  e.anneal_seed = 2;
  keys.insert(e.cache_string());
  EXPECT_EQ(keys.size(), 5u);  // every knob lands in the cache key
}

TEST(ProtocolTest, FloorplanResultJsonEncodesRankingAndWinner) {
  const Design design = small_design();
  // Tight enough that every enumerated scheme keeps reconfigurable regions
  // (a loose budget folds the design into the static region and the winner
  // would have no rectangles to encode).
  const ResourceVec budget{400, 30, 10};
  const PartitionerResult result = partition_design(design, budget);
  ASSERT_TRUE(result.feasible);
  const DeviceLibrary lib = DeviceLibrary::extended();
  const Device* device = lib.smallest_fitting(budget);
  ASSERT_NE(device, nullptr);
  const FloorplanRerank rerank =
      floorplan_rerank(design, result, *device, budget, {}, &lib);
  ASSERT_TRUE(rerank.any_feasible);

  const json::Value v =
      floorplan_result_json(design, result, rerank, device->name(), budget);
  EXPECT_EQ(v.at("design").as_string(), "radio");
  EXPECT_TRUE(v.at("feasible").as_bool());
  EXPECT_EQ(v.at("device").as_string(), device->name());
  EXPECT_EQ(v.at("candidates").as_u64(), rerank.ranked.size());
  EXPECT_EQ(v.at("vetoed").as_u64(), rerank.vetoed_count);
  EXPECT_EQ(v.at("overturned").as_bool(), rerank.overturned);
  EXPECT_EQ(v.at("winner_source").as_u64(), rerank.winner_source);
  const auto& ranked = v.at("ranked").items();
  ASSERT_EQ(ranked.size(), rerank.ranked.size());
  const json::Value& top = ranked.front();
  EXPECT_FALSE(top.at("vetoed").as_bool());
  EXPECT_EQ(top.at("placement_total").as_u64(),
            rerank.ranked.front().placement_total);
  EXPECT_FALSE(top.at("placements").items().empty());
  EXPECT_TRUE(v.at("winner").is_object());
  // Deterministic encoding.
  EXPECT_EQ(v.dump(), floorplan_result_json(design, result, rerank,
                                            device->name(), budget)
                          .dump());
}

}  // namespace
}  // namespace prpart::server
