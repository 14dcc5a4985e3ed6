// Operator CLI rendering over live emulated routers (the §5 "poke at the
// control plane" workflow, E5).
#include <gtest/gtest.h>

#include "cli/show.hpp"
#include "emu/emulation.hpp"
#include "workload/scenarios.hpp"

namespace mfv::cli {
namespace {

struct CliFixture : ::testing::Test {
  void SetUp() override {
    ASSERT_TRUE(emulation.add_topology(workload::fig2_topology(false)).ok());
    emulation.start_all();
    ASSERT_TRUE(emulation.run_to_convergence());
  }
  emu::Emulation emulation;
};

TEST_F(CliFixture, ShowIpRouteListsAllProtocols) {
  std::string output = show_ip_route(*emulation.router("R4"));
  EXPECT_NE(output.find("C"), std::string::npos);
  EXPECT_NE(output.find("10.0.0.4/32"), std::string::npos);   // own loopback
  EXPECT_NE(output.find("10.0.0.3/32"), std::string::npos);   // IS-IS learned
  EXPECT_NE(output.find("10.0.0.2/32"), std::string::npos);   // iBGP learned
  EXPECT_NE(output.find("[200/"), std::string::npos);         // iBGP distance
  EXPECT_NE(output.find("[115/"), std::string::npos);         // IS-IS distance
}

TEST_F(CliFixture, ShowIsisNeighbors) {
  EXPECT_EQ(show_isis_neighbors(*emulation.router("R3")),
            "IS-IS Instance: default\n"
            "  System Id       Interface     State  Address\n"
            "  0000.0000.0004  Ethernet2  UP    100.64.34.1\n"
            "  0000.0000.0006  Ethernet3  UP    100.64.36.1\n");
}

TEST_F(CliFixture, ShowIsisDatabaseListsAllAs3Lsps) {
  // AS3 runs IS-IS among R3, R4, R6: three LSPs.
  EXPECT_EQ(show_isis_database(*emulation.router("R4")),
            "IS-IS Instance: default Level-2 Link State Database\n"
            "  LSPID 0000.0000.0003.00-00  Seq 3\n"
            "    IS Neighbor    0000.0000.0004  Metric 10\n"
            "    IS Neighbor    0000.0000.0006  Metric 10\n"
            "    IP Reachability 10.0.0.3/32  Metric 10\n"
            "    IP Reachability 100.64.34.0/31  Metric 10\n"
            "    IP Reachability 100.64.36.0/31  Metric 10\n"
            "  LSPID 0000.0000.0004.00-00  Seq 3\n"
            "    IS Neighbor    0000.0000.0003  Metric 10\n"
            "    IS Neighbor    0000.0000.0006  Metric 10\n"
            "    IP Reachability 10.0.0.4/32  Metric 10\n"
            "    IP Reachability 100.64.34.0/31  Metric 10\n"
            "    IP Reachability 100.64.46.0/31  Metric 10\n"
            "  LSPID 0000.0000.0006.00-00  Seq 3\n"
            "    IS Neighbor    0000.0000.0003  Metric 10\n"
            "    IS Neighbor    0000.0000.0004  Metric 10\n"
            "    IP Reachability 10.0.0.6/32  Metric 10\n"
            "    IP Reachability 100.64.36.0/31  Metric 10\n"
            "    IP Reachability 100.64.46.0/31  Metric 10\n");
}

TEST_F(CliFixture, ShowBgpSummaryStates) {
  std::string output = show_ip_bgp_summary(*emulation.router("R2"));
  EXPECT_NE(output.find("local AS number 65002"), std::string::npos);
  EXPECT_NE(output.find("Established"), std::string::npos);
  // With the session admin-down variant the flag shows up.
  emu::Emulation bug;
  ASSERT_TRUE(bug.add_topology(workload::fig2_topology(true)).ok());
  bug.start_all();
  ASSERT_TRUE(bug.run_to_convergence());
  std::string bug_output = show_ip_bgp_summary(*bug.router("R2"));
  EXPECT_NE(bug_output.find("(Admin)"), std::string::npos);
}

TEST_F(CliFixture, ShowInterfaces) {
  std::string output = show_interfaces(*emulation.router("R1"));
  EXPECT_NE(output.find("Ethernet1 is up"), std::string::npos);
  EXPECT_NE(output.find("Ethernet9 is down"), std::string::npos);  // spare port
  EXPECT_NE(output.find("Internet address is 100.64.12.0/31"), std::string::npos);
}

TEST_F(CliFixture, ShowRunningConfigRoundTrips) {
  std::string output = show_running_config(*emulation.router("R5"));
  EXPECT_NE(output.find("hostname R5"), std::string::npos);
  EXPECT_NE(output.find("router bgp 65002"), std::string::npos);
  EXPECT_NE(output.find("daemon PowerManager"), std::string::npos);
}

TEST_F(CliFixture, RunCommandDispatch) {
  auto* router = emulation.router("R3");
  EXPECT_TRUE(run_command(*router, "show ip route").ok());
  EXPECT_TRUE(run_command(*router, "show isis database").ok());
  EXPECT_TRUE(run_command(*router, "show isis neighbors").ok());
  EXPECT_TRUE(run_command(*router, "show ip bgp summary").ok());
  EXPECT_TRUE(run_command(*router, "show interfaces").ok());
  EXPECT_TRUE(run_command(*router, "show mpls tunnels").ok());
  EXPECT_TRUE(run_command(*router, "show running-config").ok());
  auto bad = run_command(*router, "show fancy widgets");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("% Invalid input"), std::string::npos);
}

TEST(CliNoProtocols, GracefulWhenEnginesOff) {
  emu::Emulation emulation;
  config::DeviceConfig config;
  config.hostname = "bare";
  auto& loopback = config.interface("Loopback0");
  loopback.address = net::InterfaceAddress::parse("1.1.1.1/32");
  loopback.switchport = false;
  emulation.add_router(std::move(config));
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  auto* router = emulation.router("bare");
  EXPECT_NE(show_isis_neighbors(*router).find("IS-IS is not running"), std::string::npos);
  EXPECT_NE(show_ip_bgp_summary(*router).find("BGP is not running"), std::string::npos);
  EXPECT_NE(show_mpls_tunnels(*router).find("MPLS is not running"), std::string::npos);
}

}  // namespace
}  // namespace mfv::cli
