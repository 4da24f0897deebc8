#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "design/io_xml.hpp"
#include "synth/ip_library.hpp"
#include "util/json.hpp"

namespace prpart::cli {
namespace {

namespace fs = std::filesystem;

/// Runs the CLI and captures streams.
struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun invoke(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

/// Writes the case-study design to a temp file and returns its path.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test AND per process: ctest runs each discovered test as
    // its own process, possibly concurrently, so a shared fixed directory
    // would let one test's TearDown delete another's files mid-run.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("prpart_cli_test_" + std::to_string(::getpid()) + "_" +
            info->name());
    fs::create_directories(dir_);
    design_path_ = (dir_ / "receiver.xml").string();
    std::ofstream f(design_path_);
    f << design_to_xml(synth::wireless_receiver_design());
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string design_path_;
};

TEST_F(CliTest, HelpPrintsUsage) {
  const CliRun r = invoke({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
  EXPECT_NE(r.out.find("partition"), std::string::npos);
}

TEST_F(CliTest, UsageRowsNameExactlyTheFlagsEachCommandAccepts) {
  // Each `  prpart <command> ...` row of the usage, with its indented
  // continuation lines, must list every flag the command accepts and no
  // other.
  const std::string usage = invoke({"help"}).out;
  std::map<std::string, std::set<std::string>> rows;
  std::istringstream lines(usage.substr(usage.find("usage:")));
  std::string line;
  std::string command;
  std::getline(lines, line);
  while (std::getline(lines, line) && !line.empty()) {
    if (line.rfind("  prpart ", 0) == 0) {
      command = line.substr(9, line.find(' ', 9) - 9);
      rows[command];
    }
    static const std::regex flag("--([a-z][a-z0-9-]*)");
    for (std::sregex_iterator it(line.begin(), line.end(), flag), end;
         it != end; ++it)
      rows[command].insert((*it)[1]);
  }
  for (const char* name :
       {"devices", "analyze", "estimate", "generate", "partition", "floorplan",
        "simulate", "bitstreams", "flow", "optimal", "serve", "submit",
        "stats"})
    EXPECT_TRUE(rows.count(name)) << "no usage row for " << name;
  for (const auto& [name, flags] : rows) {
    if (name == "version") continue;  // answered before any flag is parsed
    const auto accepted = command_flags(name);
    ASSERT_TRUE(accepted) << name;
    EXPECT_EQ(flags, std::set<std::string>(accepted->begin(), accepted->end()))
        << "usage row of " << name;
  }
}

TEST_F(CliTest, NoArgsPrintsUsage) {
  const CliRun r = invoke({});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST_F(CliTest, VersionPrintsOneLine) {
  for (const char* spelling : {"version", "--version"}) {
    const CliRun r = invoke({spelling});
    EXPECT_EQ(r.code, 0) << spelling;
    EXPECT_EQ(r.out, "prpart 1.0.0\n") << spelling;
    EXPECT_EQ(r.err, "") << spelling;
  }
}

TEST_F(CliTest, UnknownCommandFails) {
  const CliRun r = invoke({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, DevicesListsLibrary) {
  const CliRun r = invoke({"devices"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("XC5VFX70T"), std::string::npos);
  EXPECT_NE(r.out.find("XC5VLX20T"), std::string::npos);
}

TEST_F(CliTest, EstimateMapsResources) {
  const CliRun r = invoke({"estimate", "--luts", "400", "--mults", "5"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("5 DSPs"), std::string::npos);
}

TEST_F(CliTest, GenerateEmitsParsableXml) {
  const CliRun r = invoke({"generate", "--seed", "3", "--class", "memory"});
  EXPECT_EQ(r.code, 0);
  const Design d = design_from_xml(r.out);
  EXPECT_GE(d.modules().size(), 2u);
}

TEST_F(CliTest, GenerateRejectsUnknownClass) {
  const CliRun r = invoke({"generate", "--class", "quantum"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown --class"), std::string::npos);
}

TEST_F(CliTest, GenerateWritesFile) {
  const std::string path = (dir_ / "gen.xml").string();
  const CliRun r = invoke({"generate", "--seed", "5", "--out", path});
  EXPECT_EQ(r.code, 0);
  std::ifstream f(path);
  EXPECT_TRUE(f.good());
}

TEST_F(CliTest, LintReportsTheDeadMode) {
  const CliRun r = invoke({"lint", design_path_});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("dead-mode"), std::string::npos);
}

TEST_F(CliTest, AnalyzeReportsCompilerStyleDiagnostics) {
  const CliRun r = invoke({"analyze", design_path_});
  EXPECT_EQ(r.code, 0) << r.err;
  // The receiver parses from a file, so the dead-mode warning carries a
  // resolvable file:line:col prefix.
  EXPECT_NE(r.out.find("warning[dead-mode]"), std::string::npos);
  EXPECT_NE(r.out.find(design_path_ + ":"), std::string::npos);
  EXPECT_NE(r.out.find("  fix: "), std::string::npos);
}

TEST_F(CliTest, AnalyzeCleanDesignSaysNoIssues) {
  const std::string clean = (dir_ / "clean.xml").string();
  {
    std::ofstream f(clean);
    f << "<design name=\"t\">\n"
         "  <module name=\"A\">\n"
         "    <mode name=\"A1\" clbs=\"100\"/>\n"
         "    <mode name=\"A2\" clbs=\"200\"/>\n"
         "  </module>\n"
         "  <module name=\"B\">\n"
         "    <mode name=\"B1\" clbs=\"300\" brams=\"2\"/>\n"
         "    <mode name=\"B2\" clbs=\"50\"/>\n"
         "  </module>\n"
         "  <configurations>\n"
         "    <configuration><use module=\"A\" mode=\"A1\"/>"
         "<use module=\"B\" mode=\"B1\"/></configuration>\n"
         "    <configuration><use module=\"A\" mode=\"A2\"/>"
         "<use module=\"B\" mode=\"B2\"/></configuration>\n"
         "  </configurations>\n"
         "</design>\n";
  }
  const CliRun r = invoke({"analyze", clean});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out, "no issues found\n");
}

TEST_F(CliTest, AnalyzeJsonIsMachineReadable) {
  const CliRun r = invoke({"analyze", design_path_, "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  const json::Value v = json::parse(r.out);
  EXPECT_TRUE(v.at("feasible").as_bool());
  EXPECT_EQ(v.at("errors").as_u64(), 0u);
  EXPECT_GE(v.at("warnings").as_u64(), 1u);
  const auto& diags = v.at("diagnostics").items();
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags.front().at("code").as_string(), "dead-mode");
  EXPECT_GE(diags.front().at("line").as_u64(), 1u);
}

TEST_F(CliTest, AnalyzeBrokenXmlExitsFourWithSpans) {
  const std::string broken = (dir_ / "broken.xml").string();
  {
    std::ofstream f(broken);
    f << "<design name=\"t\">\n  <module name=\"A\">\n";
  }
  const CliRun r = invoke({"analyze", broken});
  EXPECT_EQ(r.code, 4);
  EXPECT_NE(r.out.find("error[xml-error]"), std::string::npos);
  EXPECT_NE(r.out.find(broken + ":"), std::string::npos);
}

TEST_F(CliTest, AnalyzeUnknownReferenceExitsFour) {
  const std::string bad = (dir_ / "badref.xml").string();
  {
    std::ofstream f(bad);
    f << "<design name=\"t\">\n"
         "  <module name=\"A\"><mode name=\"M1\" clbs=\"10\"/></module>\n"
         "  <configurations>\n"
         "    <configuration><use module=\"Z\" mode=\"M1\"/></configuration>\n"
         "  </configurations>\n"
         "</design>\n";
  }
  const CliRun r = invoke({"analyze", bad});
  EXPECT_EQ(r.code, 4);
  EXPECT_NE(r.out.find("error[unknown-module-ref]"), std::string::npos);
  EXPECT_NE(r.out.find(bad + ":4:"), std::string::npos);
}

TEST_F(CliTest, AnalyzeInfeasibleBudgetExitsFour) {
  const CliRun r = invoke({"analyze", design_path_, "--budget", "100,1,1"});
  EXPECT_EQ(r.code, 4);
  EXPECT_NE(r.out.find("error[infeasible]"), std::string::npos);
  EXPECT_NE(r.out.find("no scheme fits"), std::string::npos);
}

TEST_F(CliTest, AnalyzeJsonInfeasibleCarriesTheProof) {
  const CliRun r =
      invoke({"analyze", design_path_, "--budget", "100,1,1", "--json"});
  EXPECT_EQ(r.code, 4);
  const json::Value v = json::parse(r.out);
  EXPECT_FALSE(v.at("feasible").as_bool());
  EXPECT_EQ(v.at("proof").at("target").as_string(), "budget");
  EXPECT_GT(v.at("proof").at("required").as_u64(),
            v.at("proof").at("available").as_u64());
}

TEST_F(CliTest, AnalyzeRejectsConflictingTargets) {
  const CliRun r = invoke({"analyze", design_path_, "--device", "XC5VFX70T",
                           "--budget", "1,2,3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("mutually exclusive"), std::string::npos);
}

TEST_F(CliTest, AnalyzeUnknownDeviceIsAUsageError) {
  const CliRun r = invoke({"analyze", design_path_, "--device", "XC7NOPE"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST_F(CliTest, AnalyzeRejectsTypoOption) {
  EXPECT_EQ(invoke({"analyze", design_path_, "--jsno"}).code, 1);
}

TEST_F(CliTest, AnalyzeWithoutDesignFails) {
  const CliRun r = invoke({"analyze"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("expects a design file"), std::string::npos);
}

TEST_F(CliTest, TargetCommandsRejectDeviceWithBudget) {
  // As `analyze`, `submit` and the wire do: one target, never a silent pick.
  for (const char* command : {"partition", "floorplan", "simulate",
                              "bitstreams"}) {
    SCOPED_TRACE(command);
    const CliRun r = invoke({command, design_path_, "--device", "XC5VFX70T",
                             "--budget", "6800,64,150"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("mutually exclusive"), std::string::npos) << r.err;
  }
}

TEST_F(CliTest, BudgetComponentBeyond32BitsIsRejected) {
  // 4294967396 is 2^32 + 100; narrowing it would partition against 100 CLBs.
  const CliRun r =
      invoke({"partition", design_path_, "--budget", "4294967396,100,100"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("'4294967396'"), std::string::npos) << r.err;
}

TEST_F(CliTest, PartitionRejectsResourceCountBeyond32Bits) {
  const std::string wide = (dir_ / "wide.xml").string();
  {
    std::ofstream f(wide);
    f << "<design name=\"t\">\n"
         "  <module name=\"A\">\n"
         "    <mode name=\"M1\" clbs=\"4294967396\"/>\n"
         "  </module>\n"
         "  <configurations>\n"
         "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n"
         "  </configurations>\n"
         "</design>\n";
  }
  const CliRun r = invoke({"partition", wide});
  EXPECT_EQ(r.code, 1);
  // The error names the file and the <mode> element's line, as `analyze`.
  EXPECT_NE(r.err.find(wide + ":3:5: "), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("clbs=\"4294967396\""), std::string::npos) << r.err;
}

TEST_F(CliTest, PartitionRejectsResourceTotalBeyond32Bits) {
  // Each count fits 32 bits, but 4294967295 CLBs round up to 4294967300 in
  // whole tiles: summed at 32 bits the design used to partition to a
  // 0-CLB region.
  const std::string wide = (dir_ / "wide.xml").string();
  {
    std::ofstream f(wide);
    f << "<design name=\"t\">\n"
         "  <module name=\"A\">\n"
         "    <mode name=\"Big\" clbs=\"4294967295\"/>\n"
         "    <mode name=\"Small\" clbs=\"10\"/>\n"
         "  </module>\n"
         "  <configurations>\n"
         "    <configuration><use module=\"A\" mode=\"Big\"/></configuration>\n"
         "    <configuration><use module=\"A\" mode=\"Small\"/></configuration>\n"
         "  </configurations>\n"
         "</design>\n";
  }
  const CliRun r =
      invoke({"partition", wide, "--budget", "4294967295,10,10"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find(wide + ":3:5: "), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("above the 32-bit limit"), std::string::npos) << r.err;
  EXPECT_EQ(r.out, "");

  const CliRun a = invoke({"analyze", wide});
  EXPECT_EQ(a.code, 4);
  EXPECT_NE(a.out.find(wide + ":3:5: error[resource-overflow]"),
            std::string::npos)
      << a.out;
}

/// Designs at the rules' CLB limit, 4294967280 in whole tiles: one mode that
/// large, and a configuration of two modules that sums to it. Each pairs
/// with the single region's total reconfiguration frames: 214748364 CLB
/// tiles plus one or two BRAM tiles.
const std::vector<std::pair<std::string, std::string>>& designs_at_limit() {
  static const std::vector<std::pair<std::string, std::string>> designs = {
      {"<design name=\"one\">\n"
       "  <module name=\"A\">\n"
       "    <mode name=\"Big\" clbs=\"4294967280\"/>\n"
       "    <mode name=\"Small\" brams=\"4\"/>\n"
       "  </module>\n"
       "  <configurations>\n"
       "    <configuration><use module=\"A\" mode=\"Big\"/></configuration>\n"
       "    <configuration><use module=\"A\" mode=\"Small\"/></configuration>\n"
       "  </configurations>\n"
       "</design>\n",
       "7,730,941,134"},
      {"<design name=\"two\">\n"
       "  <module name=\"A\">\n"
       "    <mode name=\"A1\" clbs=\"2147483640\"/>\n"
       "    <mode name=\"A2\" brams=\"4\"/>\n"
       "  </module>\n"
       "  <module name=\"B\">\n"
       "    <mode name=\"B1\" clbs=\"2147483640\"/>\n"
       "    <mode name=\"B2\" brams=\"4\"/>\n"
       "  </module>\n"
       "  <configurations>\n"
       "    <configuration><use module=\"A\" mode=\"A1\"/>"
       "<use module=\"B\" mode=\"B1\"/></configuration>\n"
       "    <configuration><use module=\"A\" mode=\"A2\"/>"
       "<use module=\"B\" mode=\"B2\"/></configuration>\n"
       "  </configurations>\n"
       "</design>\n",
       "7,730,941,164"},
  };
  return designs;
}

TEST_F(CliTest, PartitionKeepsFootprintsAtTheResourceLimit) {
  // Tile rounding at 32 bits used to wrap these to a 0-CLB, 30-frame
  // single region.
  for (const auto& [xml, frames] : designs_at_limit()) {
    const std::string path = (dir_ / "limit.xml").string();
    std::ofstream(path) << xml;
    const CliRun r =
        invoke({"partition", path, "--budget", "4294967295,10,10"});
    ASSERT_EQ(r.code, 0) << r.err;
    const std::size_t row = r.out.find("| Single region | ");
    ASSERT_NE(row, std::string::npos) << r.out;
    const std::string line = r.out.substr(row, r.out.find('\n', row) - row);
    EXPECT_NE(line.find("| 4294967280 |"), std::string::npos) << line;
    EXPECT_NE(line.find("| " + frames + " "), std::string::npos) << line;
  }
}

TEST_F(CliTest, PartitionWithBudget) {
  const CliRun r = invoke({"partition", design_path_, "--budget",
                           "6800,64,150", "--evals", "500000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Proposed"), std::string::npos);
  EXPECT_NE(r.out.find("PRR1"), std::string::npos);
}

TEST_F(CliTest, PartitionWithNamedDevice) {
  const CliRun r = invoke({"partition", design_path_, "--device", "XC5VFX70T",
                           "--evals", "500000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("XC5VFX70T"), std::string::npos);
}

TEST_F(CliTest, PartitionSmallestDeviceSearch) {
  const CliRun r = invoke({"partition", design_path_, "--evals", "300000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("target device:"), std::string::npos);
}

TEST_F(CliTest, PartitionThreadsFlagGivesIdenticalOutput) {
  // --threads changes only how the search runs, never what it prints: the
  // full report must match the single-thread reference byte for byte.
  const CliRun r1 = invoke({"partition", design_path_, "--budget",
                            "6800,64,150", "--evals", "500000", "--threads",
                            "1"});
  const CliRun r4 = invoke({"partition", design_path_, "--budget",
                            "6800,64,150", "--evals", "500000", "--threads",
                            "4"});
  EXPECT_EQ(r1.code, 0) << r1.err;
  EXPECT_EQ(r4.code, 0) << r4.err;
  EXPECT_EQ(r4.out, r1.out);
}

TEST_F(CliTest, SimulateInfeasibleTargetPrintsTheSharedMessage) {
  // simulate reports an infeasible target with the message partition and
  // the server use: the tile-rounded lower bound the pre-check proves
  // against, next to the budget it overshoots.
  const std::string message =
      "design does not fit the target (lower bound 6380 CLBs, 44 BRAMs, 120 "
      "DSPs, budget 100 CLBs, 1 BRAMs, 1 DSPs)\n";
  const CliRun sim = invoke({"simulate", design_path_, "--budget", "100,1,1",
                             "--steps", "10"});
  EXPECT_EQ(sim.code, 2);
  EXPECT_EQ(sim.err, message);
  const CliRun part =
      invoke({"partition", design_path_, "--budget", "100,1,1"});
  EXPECT_EQ(part.err.substr(0, message.size()), message);
}

TEST_F(CliTest, PartitionInfeasibleBudgetExitCode2) {
  const CliRun r = invoke({"partition", design_path_, "--budget", "100,1,1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("does not fit"), std::string::npos);
}

TEST_F(CliTest, PartitionInfeasibleBudgetExplainsTheProof) {
  // The analyzer's pre-check runs before the search and prints the
  // lower-bound proof with its witness device.
  const CliRun r = invoke({"partition", design_path_, "--budget", "100,1,1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("no scheme fits"), std::string::npos);
  EXPECT_NE(r.err.find("smallest fitting library device"), std::string::npos);
}

TEST_F(CliTest, PartitionWritesUcf) {
  const std::string ucf = (dir_ / "plan.ucf").string();
  const CliRun r = invoke({"partition", design_path_, "--device", "XC5VFX70T",
                           "--evals", "500000", "--ucf", ucf});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(ucf);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_NE(buf.str().find("AREA_GROUP"), std::string::npos);
}

TEST_F(CliTest, PartitionRejectsTypoOption) {
  const CliRun r = invoke({"partition", design_path_, "--devcie", "X"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST_F(CliTest, PartitionRejectsBadBudgetSyntax) {
  const CliRun r = invoke({"partition", design_path_, "--budget", "12"});
  EXPECT_EQ(r.code, 1);
}

TEST_F(CliTest, PartitionMissingFileFails) {
  const CliRun r = invoke({"partition", "/nonexistent.xml"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST_F(CliTest, SimulateReportsStats) {
  const CliRun r = invoke({"simulate", design_path_, "--device", "XC5VFX70T",
                           "--steps", "50", "--evals", "300000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("50 transitions"), std::string::npos);
  EXPECT_NE(r.out.find("total frames (Eq. 10)"), std::string::npos);
  EXPECT_NE(r.out.find("latency p50/p95/p99/max:"), std::string::npos);
}

TEST_F(CliTest, SimulateWithPrefetch) {
  const CliRun r = invoke({"simulate", design_path_, "--device", "XC5VFX70T",
                           "--steps", "50", "--evals", "300000",
                           "--prefetch"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("frames loaded:"), std::string::npos);
  EXPECT_NE(r.out.find("prefetched:"), std::string::npos);
}

TEST_F(CliTest, SimulateJsonIsThreadCountInvariant) {
  const std::vector<std::string> base = {
      "simulate",  design_path_, "--device", "XC5VFX70T", "--steps",
      "200",       "--seed",     "9",        "--evals",   "300000",
      "--rank",    "--json"};
  auto with_threads = [&](const char* t) {
    std::vector<std::string> args = base;
    args.insert(args.end(), {"--threads", t});
    return invoke(args);
  };
  const CliRun one = with_threads("1");
  const CliRun four = with_threads("4");
  const CliRun sixteen = with_threads("16");
  ASSERT_EQ(one.code, 0) << one.err;
  EXPECT_EQ(one.out, four.out);
  EXPECT_EQ(one.out, sixteen.out);
  // Two runs with the same seed are byte-identical too.
  EXPECT_EQ(one.out, with_threads("1").out);
}

TEST_F(CliTest, SimulateUniformTraceMatchesEq10) {
  // The Eulerian all-pairs circuit serves every ordered transition exactly
  // once, so the frames loaded equal twice the Eq. 10 unordered-pair total.
  const CliRun r = invoke({"simulate", design_path_, "--device", "XC5VFX70T",
                           "--uniform", "--evals", "300000", "--json"});
  ASSERT_EQ(r.code, 0) << r.err;
  const json::Value doc = json::parse(r.out);
  const json::Value& scheme = doc.at("schemes").items().at(0);
  EXPECT_EQ(scheme.at("frames_loaded").as_u64(),
            2 * scheme.at("total_frames").as_u64());
}

TEST_F(CliTest, SimulateRejectsMalformedTrace) {
  const std::string trace = (dir_ / "trace.txt").string();
  {
    std::ofstream f(trace);
    f << "0\n1\nbogus\n";
  }
  const CliRun r = invoke({"simulate", design_path_, "--device", "XC5VFX70T",
                           "--evals", "300000", "--trace", trace});
  EXPECT_EQ(r.code, 4);
  EXPECT_NE(r.err.find("trace-bad-token"), std::string::npos);
}

TEST_F(CliTest, SimulateReplaysTraceFile) {
  const std::string trace = (dir_ / "trace.txt").string();
  {
    std::ofstream f(trace);
    f << "# hand-written workload\n0\n1\n2\n0\n";
  }
  const CliRun r = invoke({"simulate", design_path_, "--device", "XC5VFX70T",
                           "--evals", "300000", "--trace", trace});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("file, 3 transitions"), std::string::npos);
}

TEST_F(CliTest, BitstreamsWritesFiles) {
  const std::string out_dir = (dir_ / "bits").string();
  const CliRun r = invoke({"bitstreams", design_path_, "--device",
                           "XC5VFX70T", "--evals", "300000", "--out",
                           out_dir});
  EXPECT_EQ(r.code, 0) << r.err;
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    EXPECT_EQ(entry.path().extension(), ".bit");
    EXPECT_GT(fs::file_size(entry.path()), 0u);
    ++files;
  }
  EXPECT_GT(files, 0u);
}

TEST_F(CliTest, FlowWritesArtifacts) {
  const std::string out_dir = (dir_ / "flowout").string();
  const CliRun r = invoke({"flow", design_path_, "--device", "XC5VFX70T",
                           "--evals", "300000", "--out", out_dir});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("device: XC5VFX70T"), std::string::npos);
  EXPECT_NE(r.out.find("placement-true:"), std::string::npos);
  EXPECT_TRUE(fs::exists(fs::path(out_dir) / "design.ucf"));
  std::size_t bits = 0;
  for (const auto& entry : fs::directory_iterator(out_dir))
    if (entry.path().extension() == ".bit") ++bits;
  EXPECT_GT(bits, 0u);
}

TEST_F(CliTest, FlowRefusesFloorplanThatStarvesStaticLogic) {
  // On the FX70T this design's schemes fit by resource count, but every
  // floorplan of them leaves the static logic too few BRAMs outside the
  // regions (the one-region answer spans the whole device). `floorplan`
  // vetoes it, and `flow` must not write that floorplan as a success.
  const std::string design = (dir_ / "logic1.xml").string();
  ASSERT_EQ(invoke({"generate", "--seed", "1", "--class", "logic", "--out",
                    design})
                .code,
            0);
  const std::string out_dir = (dir_ / "flowout").string();
  const CliRun r = invoke({"flow", design, "--device", "XC5VFX70T", "--evals",
                           "60000", "--out", out_dir});
  EXPECT_EQ(r.code, 2) << r.out;
  EXPECT_NE(r.err.find("static logic needs"), std::string::npos) << r.err;
  EXPECT_FALSE(fs::exists(fs::path(out_dir) / "design.ucf"));
}

TEST_F(CliTest, FlowAutoDevice) {
  const CliRun r = invoke({"flow", design_path_, "--evals", "300000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("feedback iterations:"), std::string::npos);
}

TEST_F(CliTest, SaveThenLoadSkipsRepartitioning) {
  const std::string plan = (dir_ / "plan.xml").string();
  const CliRun save = invoke({"partition", design_path_, "--budget",
                              "6800,64,150", "--evals", "300000", "--save",
                              plan});
  ASSERT_EQ(save.code, 0) << save.err;
  EXPECT_NE(save.out.find("saved partitioning"), std::string::npos);

  const CliRun load = invoke({"simulate", design_path_, "--steps", "30",
                              "--load", plan});
  EXPECT_EQ(load.code, 0) << load.err;
  EXPECT_NE(load.out.find("loaded:"), std::string::npos);
  EXPECT_NE(load.out.find("30 transitions"), std::string::npos);
}

TEST_F(CliTest, LoadRejectsForeignPlan) {
  // A plan saved for a different design must be rejected.
  const std::string other_design = (dir_ / "other.xml").string();
  {
    std::ofstream f(other_design);
    f << design_to_xml(synth::wireless_receiver_modified_design());
  }
  const std::string plan = (dir_ / "plan2.xml").string();
  const CliRun save = invoke({"partition", design_path_, "--budget",
                              "6800,64,150", "--evals", "300000", "--save",
                              plan});
  ASSERT_EQ(save.code, 0) << save.err;
  const CliRun load =
      invoke({"simulate", other_design, "--steps", "10", "--load", plan});
  EXPECT_EQ(load.code, 1);
}

TEST_F(CliTest, OptimalOnSmallDesign) {
  // The case study's 13 used modes are too many for the exact search, so
  // exercise the command with a generated small design.
  const std::string small = (dir_ / "small.xml").string();
  const CliRun gen =
      invoke({"generate", "--seed", "4", "--class", "logic", "--out", small});
  ASSERT_EQ(gen.code, 0);
  const CliRun r =
      invoke({"optimal", small, "--budget", "30000,400,300", "--states",
              "500000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("exact mode-level optimum"), std::string::npos);
}

TEST_F(CliTest, OptimalDefaultDeviceIsTheOnePartitionTargets) {
  // Regression: without --device/--budget, optimal picked the smallest
  // device fitting the raw largest configuration. For this design that is
  // XC5VLX20T, which its tile-rounded single region does not fit, so the
  // command failed; partition (and the exact search) target XC5VLX30.
  const std::string small = (dir_ / "mem734.xml").string();
  ASSERT_EQ(invoke({"generate", "--seed", "734", "--class", "memory",
                    "--out", small})
                .code,
            0);
  const CliRun r = invoke({"optimal", small});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("using XC5VLX30\n"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("total reconfiguration: 39,728 frames"),
            std::string::npos)
      << r.out;
  const CliRun part = invoke({"partition", small});
  EXPECT_NE(part.out.find("target device: XC5VLX30\n"), std::string::npos);
}

TEST_F(CliTest, OptimalInfeasibleBudget) {
  const std::string small = (dir_ / "small2.xml").string();
  invoke({"generate", "--seed", "4", "--class", "logic", "--out", small});
  const CliRun r = invoke({"optimal", small, "--budget", "30,0,0"});
  EXPECT_EQ(r.code, 2);
}

TEST_F(CliTest, OptionsWithoutCommandFail) {
  // Regression: an option-only argv used to fall through to a raw
  // std::out_of_range instead of a usage error.
  const CliRun r = invoke({"--budget", "1,2,3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("missing command"), std::string::npos);
}

TEST_F(CliTest, LintWithoutDesignFails) {
  const CliRun r = invoke({"lint"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("expects a design file"), std::string::npos);
}

TEST_F(CliTest, PartitionWithoutDesignFails) {
  const CliRun r = invoke({"partition"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("expects a design file"), std::string::npos);
}

TEST_F(CliTest, SimulateWithoutDesignFails) {
  EXPECT_EQ(invoke({"simulate"}).code, 1);
}

TEST_F(CliTest, BitstreamsWithoutDesignFails) {
  EXPECT_EQ(invoke({"bitstreams"}).code, 1);
}

TEST_F(CliTest, FlowWithoutDesignFails) {
  EXPECT_EQ(invoke({"flow"}).code, 1);
}

TEST_F(CliTest, OptimalWithoutDesignFails) {
  EXPECT_EQ(invoke({"optimal"}).code, 1);
}

TEST_F(CliTest, SubmitWithoutDesignFails) {
  EXPECT_EQ(invoke({"submit"}).code, 1);
}

TEST_F(CliTest, DevicesRejectsUnknownOption) {
  const CliRun r = invoke({"devices", "--frob", "x"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST_F(CliTest, EstimateRejectsNonNumericValue) {
  EXPECT_EQ(invoke({"estimate", "--luts", "many"}).code, 1);
}

TEST_F(CliTest, GenerateRejectsTypoOption) {
  EXPECT_EQ(invoke({"generate", "--sede", "3"}).code, 1);
}

TEST_F(CliTest, SimulateRejectsTypoOption) {
  EXPECT_EQ(invoke({"simulate", design_path_, "--stpes", "5"}).code, 1);
}

TEST_F(CliTest, BitstreamsRejectsTypoOption) {
  EXPECT_EQ(invoke({"bitstreams", design_path_, "--uot", "d"}).code, 1);
}

TEST_F(CliTest, FlowRejectsTypoOption) {
  EXPECT_EQ(invoke({"flow", design_path_, "--budget", "1,2,3"}).code, 1);
}

TEST_F(CliTest, OptimalRejectsTypoOption) {
  EXPECT_EQ(invoke({"optimal", design_path_, "--staets", "5"}).code, 1);
}

TEST_F(CliTest, ServeRejectsUnknownOption) {
  // check_known fires before any socket is opened, so this cannot hang.
  const CliRun r = invoke({"serve", "--prot", "1234"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST_F(CliTest, ServeRejectsTrailingUnknownSwitch) {
  const CliRun r = invoke({"serve", "--legacy-io"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown option --legacy-io"), std::string::npos)
      << r.err;
}

TEST_F(CliTest, UnknownOptionBeforeTheDesignIsNamed) {
  // `--bogus` swallows the design path as its value; the error must name
  // the option, not claim the design file is missing.
  const CliRun r = invoke({"partition", "--bogus", design_path_});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown option --bogus"), std::string::npos) << r.err;
}

TEST_F(CliTest, KnownOptionWithoutValueSaysSo) {
  const CliRun r = invoke({"partition", design_path_, "--budget"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("option --budget expects a value"), std::string::npos)
      << r.err;
}

TEST_F(CliTest, SimulateRejectsIdleFramesWithoutPrefetch) {
  // The idle budget only feeds the prefetcher; silently ignoring it would
  // hide a mistyped command line.
  const CliRun r = invoke({"simulate", design_path_, "--device", "XC5VFX70T",
                           "--steps", "50", "--idle-frames", "100"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--idle-frames"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--prefetch"), std::string::npos) << r.err;
}

TEST_F(CliTest, StatsRejectsUnknownOption) {
  EXPECT_EQ(invoke({"stats", "--hots", "x"}).code, 1);
}

TEST_F(CliTest, SubmitRejectsConflictingTargets) {
  const CliRun r = invoke({"submit", design_path_, "--device", "XC5VFX70T",
                           "--budget", "1,2,3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("mutually exclusive"), std::string::npos);
}

TEST_F(CliTest, StatsWithoutServerFails) {
  // Nothing listens on the discard port: the client must fail cleanly.
  const CliRun r = invoke({"stats", "--port", "9"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error"), std::string::npos);
}

TEST_F(CliTest, PartitionJsonIsMachineReadable) {
  const CliRun r = invoke({"partition", design_path_, "--budget",
                           "6800,64,150", "--evals", "300000", "--json"});
  ASSERT_EQ(r.code, 0) << r.err;
  const json::Value v = json::parse(r.out);
  EXPECT_TRUE(v.at("feasible").as_bool());
  EXPECT_GT(v.at("proposed").at("total_frames").as_u64(), 0u);
  EXPECT_EQ(v.at("budget").at("clbs").as_u64(), 6800u);
  EXPECT_TRUE(v.at("baselines").at("modular").is_object());
}

TEST_F(CliTest, PartitionJsonInfeasibleStillEmitsJsonAndExits2) {
  const CliRun r =
      invoke({"partition", design_path_, "--budget", "100,1,1", "--json"});
  EXPECT_EQ(r.code, 2);
  const json::Value v = json::parse(r.out);
  EXPECT_FALSE(v.at("feasible").as_bool());
  EXPECT_TRUE(v.at("proposed").is_null());
  EXPECT_GT(v.at("lower_bound").at("clbs").as_u64(), 0u);
}

TEST_F(CliTest, PartitionJsonRejectsFloorplanCombination) {
  const CliRun r = invoke({"partition", design_path_, "--budget",
                           "6800,64,150", "--json", "--floorplan"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--json"), std::string::npos);
}

TEST_F(CliTest, PartitionJsonIdenticalAcrossThreadCounts) {
  const CliRun r1 = invoke({"partition", design_path_, "--budget",
                            "6800,64,150", "--evals", "300000", "--threads",
                            "1", "--json"});
  const CliRun r4 = invoke({"partition", design_path_, "--budget",
                            "6800,64,150", "--evals", "300000", "--threads",
                            "4", "--json"});
  ASSERT_EQ(r1.code, 0) << r1.err;
  ASSERT_EQ(r4.code, 0) << r4.err;
  EXPECT_EQ(r4.out, r1.out);
}

TEST_F(CliTest, DevicesListsReferenceParts) {
  const CliRun r = invoke({"devices"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Reference parts"), std::string::npos);
  EXPECT_NE(r.out.find("XC7Z020"), std::string::npos);
  EXPECT_NE(r.out.find("XC7V585T"), std::string::npos);
}

TEST_F(CliTest, FloorplanRanksCandidatesAndPrintsWinner) {
  const CliRun r = invoke({"floorplan", design_path_, "--device", "XC5VFX70T",
                           "--evals", "60000"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Placement-true re-ranking"), std::string::npos);
  EXPECT_NE(r.out.find("placement-true"), std::string::npos);
  EXPECT_NE(r.out.find("Winner floorplan on XC5VFX70T"), std::string::npos);
  EXPECT_NE(r.out.find("PRR1"), std::string::npos);
}

TEST_F(CliTest, FloorplanBudgetTargetPicksSmallestFittingDevice) {
  const CliRun r = invoke({"floorplan", design_path_, "--budget",
                           "6800,64,150", "--evals", "60000"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("placement device:"), std::string::npos);
}

TEST_F(CliTest, FloorplanJsonIsThreadCountInvariant) {
  const std::vector<std::string> base = {"floorplan", design_path_,
                                         "--device", "XC5VFX70T", "--evals",
                                         "60000", "--json", "--threads"};
  std::vector<std::string> a1 = base, a4 = base;
  a1.push_back("1");
  a4.push_back("4");
  const CliRun r1 = invoke(a1);
  const CliRun r4 = invoke(a4);
  ASSERT_EQ(r1.code, 0) << r1.err;
  ASSERT_EQ(r4.code, 0) << r4.err;
  EXPECT_EQ(r4.out, r1.out);

  const json::Value v = json::parse(r1.out);
  EXPECT_TRUE(v.at("feasible").as_bool());
  EXPECT_EQ(v.at("device").as_string(), "XC5VFX70T");
  ASSERT_FALSE(v.at("ranked").items().empty());
  const json::Value& top = v.at("ranked").items().front();
  EXPECT_FALSE(top.at("vetoed").as_bool());
  EXPECT_GE(top.at("placement_total").as_u64(),
            top.at("estimated_total").as_u64());
  EXPECT_FALSE(top.at("placements").items().empty());
  EXPECT_TRUE(v.at("winner").is_object());
}

TEST_F(CliTest, FloorplanOverturnExampleOnTheCaseStudyDevice) {
  // The committed co-optimization example: synthetic seed 16 (logic class)
  // on the FX70T. The Eq. 10 estimate ties all enumerated schemes; the
  // placement-true cost re-ranks a runner-up into first place and vetoes
  // two schemes for static overflow, with a retarget fix-it.
  const std::string path = (dir_ / "seed16.xml").string();
  const CliRun gen = invoke({"generate", "--seed", "16", "--class", "logic",
                             "--out", path});
  ASSERT_EQ(gen.code, 0) << gen.err;
  const CliRun r = invoke({"floorplan", path, "--device", "XC5VFX70T",
                           "--evals", "60000"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("overturns the Eq. 10 ranking"), std::string::npos);
  EXPECT_NE(r.out.find("VETOED"), std::string::npos);
  EXPECT_NE(r.out.find("retarget XC5VFX95T"), std::string::npos);
}

TEST_F(CliTest, FloorplanAllVetoedExitsTwoWithDiagnostics) {
  // Auto device walk on the seed-7 dspmem design lands on a device where
  // every enumerated scheme is vetoed; the command reports the diagnostics
  // and exits 2 like an infeasible partition.
  const std::string path = (dir_ / "seed7.xml").string();
  const CliRun gen = invoke({"generate", "--seed", "7", "--class", "dspmem",
                             "--out", path});
  ASSERT_EQ(gen.code, 0) << gen.err;
  const CliRun r = invoke({"floorplan", path, "--device", "XC5VFX95T",
                           "--evals", "60000"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("VETOED"), std::string::npos);
  EXPECT_NE(r.err.find("no enumerated scheme has a legal floorplan"),
            std::string::npos);
}

TEST_F(CliTest, FloorplanRejectsZeroTopK) {
  const CliRun r = invoke({"floorplan", design_path_, "--device", "XC5VFX70T",
                           "--top-k", "0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--top-k"), std::string::npos);
}

TEST_F(CliTest, FloorplanRejectsTypoOption) {
  const CliRun r = invoke({"floorplan", design_path_, "--device", "XC5VFX70T",
                           "--topk", "3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST_F(CliTest, PartitionFloorplanPrintsPlacementTrueCost) {
  const CliRun r = invoke({"partition", design_path_, "--device", "XC5VFX70T",
                           "--evals", "60000", "--floorplan"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Floorplan on XC5VFX70T"), std::string::npos);
  EXPECT_NE(r.out.find("placement-true:"), std::string::npos);
}

TEST_F(CliTest, SimulateFloorplanReplaysPlacementTrueFrames) {
  const CliRun plain = invoke({"simulate", design_path_, "--device",
                               "XC5VFX70T", "--evals", "60000",
                               "--steps", "2000"});
  const CliRun placed = invoke({"simulate", design_path_, "--device",
                                "XC5VFX70T", "--evals", "60000",
                                "--steps", "2000", "--floorplan"});
  ASSERT_EQ(plain.code, 0) << plain.err;
  ASSERT_EQ(placed.code, 0) << placed.err;
  // Same workload, placement-true frame counts: the replay exists and the
  // output differs from the estimate-priced one (waste is never free on
  // this design/device pair).
  EXPECT_NE(placed.out, plain.out);
}

TEST_F(CliTest, SimulateRejectsFloorplanWithLoad) {
  const CliRun r = invoke({"simulate", design_path_, "--load", "plan.xml",
                           "--floorplan"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--floorplan"), std::string::npos);
}

TEST_F(CliTest, DeterministicOutput) {
  const std::vector<std::string> args = {"partition", design_path_,
                                         "--budget", "6800,64,150",
                                         "--evals", "300000"};
  const CliRun a = invoke(args);
  const CliRun b = invoke(args);
  EXPECT_EQ(a.out, b.out);
  EXPECT_EQ(a.code, b.code);
}

}  // namespace
}  // namespace prpart::cli
