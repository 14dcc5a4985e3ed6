// The differential oracles. Each one computes the same artifact two
// independent ways and demands byte-for-byte agreement; a Verdict carries
// the first observed divergence so repros are self-explaining.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"

namespace mfv::fuzz {

struct Verdict {
  uint32_t oracle = 0;
  bool ok = true;
  /// The case could not exercise the oracle (its topology was rejected or
  /// did not converge, an exploration was cut short); `ok` stays true.
  bool skipped = false;
  /// First divergence (or skip reason), human-readable.
  std::string detail;
};

/// Runs every oracle in `mask` that the case can exercise (see
/// FuzzCase::oracles()); one verdict per oracle run, skipped ones included.
std::vector<Verdict> run_oracles(const FuzzCase& c, uint32_t mask = kOracleAll);

/// Convenience: the first failing verdict, if any.
std::optional<Verdict> first_failure(const FuzzCase& c, uint32_t mask = kOracleAll);

}  // namespace mfv::fuzz
