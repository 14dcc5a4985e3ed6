// Multipath flow tracing over a forwarding graph: the per-flow walker
// behind traceroute, and the reference the memoized sweep engine
// (trace_cache.hpp) is fuzzed against.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "verify/disposition.hpp"
#include "verify/forwarding_graph.hpp"

namespace mfv::verify {

struct TraceHopDetail {
  net::NodeName node;
  std::optional<net::Ipv4Prefix> matched_prefix;
  std::string origin_protocol;
  std::optional<net::Ipv4Address> next_hop;
  std::optional<net::InterfaceName> out_interface;
  /// MPLS label the packet carries when *leaving* this hop (LSP segments).
  std::optional<uint32_t> out_label;
};

struct TracePath {
  std::vector<TraceHopDetail> hops;
  Disposition disposition = Disposition::kNoRoute;

  std::string to_string() const;
};

struct TraceResult {
  std::vector<TracePath> paths;
  DispositionSet dispositions;
  bool truncated = false;  // hit the path-count cap

  bool reachable() const { return dispositions.contains(Disposition::kAccepted); }
};

struct TraceOptions {
  int max_hops = 64;
  size_t max_paths = 128;
};

/// Traces a packet destined to `destination` injected at `source`,
/// following every ECMP branch.
TraceResult trace_flow(const ForwardingGraph& graph, const net::NodeName& source,
                       net::Ipv4Address destination, const TraceOptions& options = {});

}  // namespace mfv::verify
