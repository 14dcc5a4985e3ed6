// Experiment E1 (§5, Fig. 2): model-free verification uncovers the
// reachability impact of taking down the R2-R3 eBGP session — the
// Differential Reachability query finds the loss of connectivity from AS3
// routers to AS2 (and AS1), and nothing else regresses.
#include <gtest/gtest.h>

#include "api/session.hpp"
#include "workload/scenarios.hpp"

namespace mfv {
namespace {

class Fig2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.init_snapshot(workload::fig2_topology(false), "base").ok());
    ASSERT_TRUE(session_.init_snapshot(workload::fig2_topology(true), "bug").ok());
  }

  api::Session session_;
};

TEST_F(Fig2Test, ConfigsAreCleanOnTheRealDevice) {
  // The vendor parser (the "real device") accepts every line.
  const api::SnapshotInfo* info = session_.info("base");
  ASSERT_NE(info, nullptr);
  for (const auto& [node, diagnostics] : info->diagnostics)
    EXPECT_EQ(diagnostics.error_count(), 0u)
        << node << ": " << (diagnostics.items.empty() ? "" : diagnostics.items[0].to_string());
}

TEST_F(Fig2Test, BaselineHasFullInterAsReachability) {
  auto pairwise = session_.pairwise_reachability("base");
  ASSERT_TRUE(pairwise.ok());
  for (const auto& cell : pairwise->cells)
    EXPECT_TRUE(cell.reachable) << cell.source << " cannot reach " << cell.destination;
  EXPECT_TRUE(pairwise->full_mesh());
}

TEST_F(Fig2Test, CustomerAggregateReachesAs3) {
  // R1's 192.0.2.0/24 aggregate must be visible from deep inside AS3.
  auto trace = session_.traceroute("bug", "R4", *net::Ipv4Address::parse("192.0.2.1"));
  auto base_trace = session_.traceroute("base", "R4", *net::Ipv4Address::parse("192.0.2.1"));
  ASSERT_TRUE(base_trace.ok());
  // In the base snapshot the aggregate is null-routed AT R1 (discard
  // aggregate), so the flow traverses R3 -> R2 -> R1 and dies there.
  ASSERT_FALSE(base_trace->paths.empty());
  bool saw_r1 = false;
  for (const auto& path : base_trace->paths)
    for (const auto& hop : path.hops)
      if (hop.node == "R1") saw_r1 = true;
  EXPECT_TRUE(saw_r1) << "aggregate traffic should reach R1";
  // In the bug snapshot AS3 has no route at all.
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace->dispositions.contains(verify::Disposition::kNoRoute));
}

TEST_F(Fig2Test, DifferentialReachabilityFindsAs3ToAs2Loss) {
  auto diff = session_.differential_reachability("base", "bug");
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->empty()) << "the downed eBGP session must surface differences";

  // Every AS3 router loses connectivity to the AS2 loopbacks.
  auto expect_regression = [&](const std::string& source, const std::string& dst) {
    auto address = net::Ipv4Address::parse(dst);
    ASSERT_TRUE(address.has_value());
    bool found = false;
    for (const auto& row : diff->regressions())
      if (row.source == source && row.destination.contains(*address)) found = true;
    EXPECT_TRUE(found) << source << " -> " << dst << " regression not reported";
  };
  for (std::string source : {"R3", "R4", "R6"}) {
    expect_regression(source, workload::fig2_loopback(2));  // AS2
    expect_regression(source, workload::fig2_loopback(5));  // AS2
    expect_regression(source, workload::fig2_loopback(1));  // AS1 beyond AS2
  }

  // AS3-internal connectivity is unaffected: no regression rows between
  // AS3 routers.
  for (const auto& row : diff->regressions()) {
    for (int i : {3, 4, 6}) {
      auto loopback = net::Ipv4Address::parse(workload::fig2_loopback(i));
      if (row.destination.contains(*loopback) &&
          (row.source == "R3" || row.source == "R4" || row.source == "R6"))
        ADD_FAILURE() << "unexpected AS3-internal regression: " << row.to_string();
    }
  }
}

TEST_F(Fig2Test, ReverseDirectionAlsoSevered) {
  // AS2/AS1 likewise lose reachability toward AS3 loopbacks.
  auto diff = session_.differential_reachability("base", "bug");
  ASSERT_TRUE(diff.ok());
  auto loopback3 = net::Ipv4Address::parse(workload::fig2_loopback(3));
  bool found = false;
  for (const auto& row : diff->regressions())
    if (row.source == "R5" && row.destination.contains(*loopback3)) found = true;
  EXPECT_TRUE(found);
}

TEST_F(Fig2Test, ConvergenceMetadataIsPopulated) {
  const api::SnapshotInfo* info = session_.info("base");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->backend, api::Backend::kModelFree);
  EXPECT_GT(info->convergence_time.count_micros(), 0);
  EXPECT_GT(info->messages, 0u);
}

TEST_F(Fig2Test, ConfigSizesMatchPaperRange) {
  // "The number of lines in each configuration ranges from 62-82."
  emu::Topology topology = workload::fig2_topology(false);
  for (const emu::NodeSpec& node : topology.nodes) {
    int lines = 0;
    size_t start = 0;
    const std::string& text = node.config_text;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      std::string line = text.substr(start, end - start);
      // Count non-blank, non-comment lines like the parsers do.
      bool content = false;
      for (char c : line)
        if (!isspace(static_cast<unsigned char>(c)) && c != '!') {
          content = true;
          break;
        }
      if (content) ++lines;
      start = end + 1;
    }
    EXPECT_GE(lines, 62) << node.name << " has " << lines << " lines";
    EXPECT_LE(lines, 82) << node.name << " has " << lines << " lines";
  }
}

}  // namespace
}  // namespace mfv
