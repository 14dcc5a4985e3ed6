// Session API surface: snapshot lifecycle, backend selection, error typing,
// snapshot import/export, and concurrent queries on one snapshot.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "cli/show.hpp"
#include "workload/scenarios.hpp"

namespace mfv::api {
namespace {

TEST(Session, BackendNames) {
  EXPECT_EQ(backend_name(Backend::kModelFree), "model-free");
  EXPECT_EQ(backend_name(Backend::kModelBased), "model-based");
}

TEST(Session, DuplicateSnapshotNameRejected) {
  Session session;
  ASSERT_TRUE(session.init_snapshot(workload::fig3_line_topology(), "snap").ok());
  util::Status status = session.init_snapshot(workload::fig3_line_topology(), "snap");
  EXPECT_EQ(status.code(), util::StatusCode::kAlreadyExists);
}

TEST(Session, QueriesOnMissingSnapshotAreNotFound) {
  Session session;
  EXPECT_EQ(session.reachability("nope").status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(session.differential_reachability("a", "b").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(session
                .traceroute("nope", "R1", *net::Ipv4Address::parse("1.1.1.1"))
                .status()
                .code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(session.pairwise_reachability("nope").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(session.detect_loops("nope").status().code(), util::StatusCode::kNotFound);
}

TEST(Session, SnapshotNamesAndInfo) {
  Session session;
  ASSERT_TRUE(session.init_snapshot(workload::fig3_line_topology(), "emu",
                                    Backend::kModelFree)
                  .ok());
  ASSERT_TRUE(session.init_snapshot(workload::fig3_line_topology(), "model",
                                    Backend::kModelBased)
                  .ok());
  EXPECT_EQ(session.snapshot_names().size(), 2u);
  EXPECT_TRUE(session.has_snapshot("emu"));
  EXPECT_FALSE(session.has_snapshot("other"));

  const SnapshotInfo* emu_info = session.info("emu");
  ASSERT_NE(emu_info, nullptr);
  EXPECT_EQ(emu_info->backend, Backend::kModelFree);
  EXPECT_GT(emu_info->messages, 0u);
  EXPECT_EQ(emu_info->unrecognized_lines, 0u);

  const SnapshotInfo* model_info = session.info("model");
  ASSERT_NE(model_info, nullptr);
  EXPECT_EQ(model_info->backend, Backend::kModelBased);
  EXPECT_GT(model_info->unrecognized_lines, 0u);  // "isis enable" error lines
}

TEST(Session, LiveEmulationAccessForCliPoking) {
  Session session;
  ASSERT_TRUE(session.init_snapshot(workload::fig3_line_topology(), "emu").ok());
  emu::Emulation* emulation = session.emulation("emu");
  ASSERT_NE(emulation, nullptr);
  auto* router = emulation->router("R2");
  ASSERT_NE(router, nullptr);
  auto output = cli::run_command(*router, "show isis database");
  ASSERT_TRUE(output.ok());
  EXPECT_NE(output->find("LSPID"), std::string::npos);

  // Model-based snapshots have no live emulation.
  ASSERT_TRUE(session
                  .init_snapshot(workload::fig3_line_topology(), "model",
                                 Backend::kModelBased)
                  .ok());
  EXPECT_EQ(session.emulation("model"), nullptr);
}

TEST(Session, ImportedSnapshotIsQueryable) {
  Session builder;
  ASSERT_TRUE(builder.init_snapshot(workload::fig3_line_topology(), "emu").ok());
  // Export to JSON and import into a fresh session (snapshot persistence).
  std::string text = builder.snapshot("emu")->to_json().dump();
  auto restored = gnmi::Snapshot::from_json_text(text);
  ASSERT_TRUE(restored.ok());

  Session consumer;
  ASSERT_TRUE(consumer.add_snapshot(std::move(restored).value(), "imported").ok());
  auto pairwise = consumer.pairwise_reachability("imported");
  ASSERT_TRUE(pairwise.ok());
  EXPECT_TRUE(pairwise->full_mesh());
}

TEST(Session, TracerouteReturnsPaths) {
  Session session;
  ASSERT_TRUE(session.init_snapshot(workload::fig3_line_topology(), "emu").ok());
  auto trace = session.traceroute("emu", "R1", *net::Ipv4Address::parse("2.2.2.3"));
  ASSERT_TRUE(trace.ok());
  ASSERT_FALSE(trace->paths.empty());
  EXPECT_EQ(trace->paths[0].hops.size(), 3u);  // R1 -> R2 -> R3
  EXPECT_EQ(trace->paths[0].hops[2].node, "R3");
}

TEST(Session, EmulationOptionsPropagate) {
  SessionOptions options;
  options.emulation.seed = 42;
  options.emulation.message_jitter_micros = 500;
  Session session(options);
  ASSERT_TRUE(session.init_snapshot(workload::fig3_line_topology(), "jittered").ok());
  auto pairwise = session.pairwise_reachability("jittered");
  ASSERT_TRUE(pairwise.ok());
  EXPECT_TRUE(pairwise->full_mesh()) << "jitter must not break convergence";
}

/// Every answer of the three sweep queries on `name`, rendered.
std::string render_queries(const Session& session, const std::string& name) {
  std::string out;
  auto reachability = session.reachability(name);
  auto pairwise = session.pairwise_reachability(name);
  auto loops = session.detect_loops(name);
  if (!reachability.ok() || !pairwise.ok() || !loops.ok()) return "query failed";
  for (const verify::ReachabilityRow& row : reachability->rows)
    out += row.source + "|" + row.destination.to_string() + "|" +
           row.dispositions.to_string() + "\n";
  for (const verify::PairwiseCell& cell : pairwise->cells)
    out += cell.source + ">" + cell.destination + "=" + (cell.reachable ? "1" : "0") + "\n";
  for (const verify::ReachabilityRow& row : loops->rows)
    out += "loop " + row.source + "|" + row.destination.to_string() + "\n";
  return out;
}

TEST(Session, ConcurrentQueriesOnOneSnapshot) {
  Session serial;
  ASSERT_TRUE(serial.init_snapshot(workload::fig2_topology(false), "fig2").ok());
  const std::string expected = render_queries(serial, "fig2");
  ASSERT_NE(expected, "query failed");

  // Four threads query a snapshot nobody has queried yet: its graph and
  // cache must already exist, not be built by whichever query comes first.
  Session session;
  ASSERT_TRUE(session.init_snapshot(workload::fig2_topology(false), "fig2").ok());
  std::vector<std::string> answers(4);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < answers.size(); ++i)
    threads.emplace_back([&, i] { answers[i] = render_queries(session, "fig2"); });
  for (std::thread& thread : threads) thread.join();
  for (const std::string& answer : answers) EXPECT_EQ(answer, expected);
}

}  // namespace
}  // namespace mfv::api
