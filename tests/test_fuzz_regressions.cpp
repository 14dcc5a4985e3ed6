// Fuzz-harness regressions: every minimized repro in tests/fuzz_corpus/
// must stay green through the oracles that caught it, the generator must
// be seed-deterministic, cases must survive a JSON round-trip, and the
// minimizer must actually shrink while preserving the failure predicate.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/oracles.hpp"

namespace mfv::fuzz {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(MFV_FUZZ_CORPUS_DIR))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FuzzCorpus, EveryCheckedInReproStaysGreen) {
  std::vector<std::filesystem::path> files = corpus_files();
  ASSERT_FALSE(files.empty()) << "no corpus at " << MFV_FUZZ_CORPUS_DIR;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto loaded = FuzzCase::from_json_text(text);
    ASSERT_TRUE(loaded.ok()) << path << ": " << loaded.status().message();
    for (const Verdict& verdict : run_oracles(loaded.value(), kOracleAll)) {
      EXPECT_TRUE(verdict.ok) << path.filename() << " " << oracle_name(verdict.oracle)
                              << ": " << verdict.detail;
    }
  }
}

TEST(FuzzGenerator, SameSeedSameBytes) {
  for (uint64_t seed : {0ull, 1ull, 42ull, 123456789ull}) {
    FuzzCase first = generate_case(seed);
    FuzzCase second = generate_case(seed);
    EXPECT_EQ(first.to_json().dump(), second.to_json().dump()) << "seed " << seed;
  }
}

TEST(FuzzGenerator, CasesSurviveJsonRoundTrip) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    FuzzCase original = generate_case(seed);
    auto reloaded = FuzzCase::from_json_text(original.to_json().dump());
    ASSERT_TRUE(reloaded.ok()) << "seed " << seed << ": "
                               << reloaded.status().message();
    EXPECT_EQ(reloaded.value().to_json().dump(), original.to_json().dump())
        << "seed " << seed;
    EXPECT_EQ(reloaded.value().oracles(), original.oracles()) << "seed " << seed;
  }
}

// A zero-latency link makes add_topology reject the case: every oracle that
// boots the topology reports a skip, which is not a failure. The dialect
// oracle reads the config text only, so it still runs.
TEST(FuzzOracles, RejectedTopologyIsSkippedNotFailed) {
  FuzzCase c;
  for (uint64_t seed = 0; seed < 50 && c.topology.links.empty(); ++seed)
    if (FuzzCase candidate = generate_case(seed); candidate.mode == Mode::kWan) c = candidate;
  ASSERT_FALSE(c.topology.links.empty()) << "no WAN case in seeds 0..50";
  c.topology.links[0].latency_micros = 0;

  std::vector<Verdict> verdicts = run_oracles(c, kOracleAll);
  EXPECT_EQ(verdicts.size(), 8u);
  for (const Verdict& verdict : verdicts) {
    EXPECT_TRUE(verdict.ok) << oracle_name(verdict.oracle) << ": " << verdict.detail;
    EXPECT_EQ(verdict.skipped, verdict.oracle != kOracleDialect)
        << oracle_name(verdict.oracle) << ": " << verdict.detail;
  }
}

TEST(FuzzMinimizer, ShrinksToPredicateCore) {
  // Find a WAN-mode case, then shrink under a synthetic failure
  // predicate: "some node's config enables BGP". The minimizer should
  // strip perturbations, peers, and every node but one carrier of the
  // marker — without ever evaluating the real oracles.
  FuzzCase fat;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    FuzzCase candidate = generate_case(seed);
    if (candidate.mode != Mode::kWan) continue;
    bool marked = false;
    for (const auto& node : candidate.topology.nodes)
      if (node.config_text.find("bgp") != std::string::npos) marked = true;
    if (!marked) continue;
    fat = candidate;
    break;
  }
  ASSERT_FALSE(fat.topology.nodes.empty()) << "no suitable seed in 0..50";

  auto still_fails = [](const FuzzCase& candidate) {
    for (const auto& node : candidate.topology.nodes)
      if (node.config_text.find("bgp") != std::string::npos) return true;
    return false;
  };
  MinimizeStats stats;
  FuzzCase small = minimize(fat, still_fails, &stats);

  EXPECT_TRUE(still_fails(small));
  EXPECT_GT(stats.attempts, 0u);
  EXPECT_EQ(small.topology.nodes.size(), 1u);
  EXPECT_TRUE(small.perturbations.empty());
  EXPECT_TRUE(small.topology.external_peers.empty());
  EXPECT_LT(small.topology.nodes[0].config_text.size(),
            fat.topology.nodes[0].config_text.size());
}

}  // namespace
}  // namespace mfv::fuzz
