// Operator debugging session — the E5 "poke at the control plane" flow.
//
// Brings up the Fig. 2 network with the buggy change applied and walks the
// same debugging path an operator would over SSH: verification reports
// missing reachability, then `show` commands on the emulated routers
// localize the cause (an administratively-down BGP session).
//
// Pass router names + commands as arguments to run your own, e.g.:
//   operator_cli R2 "show ip bgp summary" R4 "show ip route"
#include <cstdio>

#include "api/session.hpp"
#include "cli/show.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace mfv;

  api::Session session;
  if (!session.init_snapshot(workload::fig2_topology(true), "wan").ok()) return 1;
  const emu::Emulation* live = session.emulation("wan");

  // Step 1: verification flags the problem.
  auto trace = session.traceroute("wan", "R4", *net::Ipv4Address::parse("10.0.0.5"));
  std::printf("Verification: R4 -> 10.0.0.5 is %s\n",
              trace->reachable() ? "reachable" : "BROKEN");
  std::printf("  %s\n\n", trace->paths[0].to_string().c_str());

  // Step 2: the operator inspects routers with familiar commands.
  auto run = [&](const std::string& node, const std::string& command) {
    auto* router = live->router(node);
    if (router == nullptr) {
      std::printf("no such router '%s'\n", node.c_str());
      return;
    }
    std::printf("%s# %s\n", node.c_str(), command.c_str());
    auto output = cli::run_command(*router, command);
    std::printf("%s\n", output.ok() ? output->c_str()
                                    : (output.status().message() + "\n").c_str());
  };

  if (argc > 2) {
    for (int i = 1; i + 1 < argc; i += 2) run(argv[i], argv[i + 1]);
    return 0;
  }

  // Scripted session: where did the route go?
  run("R4", "show ip route");          // no route toward AS2
  run("R4", "show isis neighbors");    // IGP is fine
  run("R3", "show ip bgp summary");    // border session is Admin-down!
  run("R3", "show running-config");    // and there is the "shutdown" line
  std::printf("Root cause: the R3 -> R2 eBGP session is administratively down.\n");
  return 0;
}
