// Shared machine-readable output for the bench binaries.
//
// Every bench keeps printing its legacy greppable `X_TIMING k=v` lines;
// routing those prints through mfvbench::timing() additionally records
// them, and `--json out.json` (stripped from argv before the benchmark
// library parses flags) dumps everything recorded as one JSON document:
//
//   { "bench": "bench_a3_linkcuts", "host": {...},
//     "metrics": [ {"metric": "A3_TIMING", "sweep": "k1", ...}, ... ] }
//
// Field order inside each metric row follows the legacy line order
// (util::Json objects preserve insertion order). The document also names
// its host: {"host": {"nproc": ..., "build_type": ...}}.
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "util/json.hpp"

namespace mfvbench {

class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport report;
    return report;
  }

  /// Consumes `--json PATH` / `--json=PATH` from argv (call before
  /// benchmark::Initialize, which rejects unknown flags). `default_path`
  /// makes the report unconditional for benches whose JSON output is part
  /// of their contract (bench_service → BENCH_service.json).
  void init(int* argc, char** argv, std::string bench, std::string default_path = "") {
    bench_ = std::move(bench);
    path_ = std::move(default_path);
    int out = 1;
    for (int in = 1; in < *argc; ++in) {
      std::string arg = argv[in];
      if (arg == "--json" && in + 1 < *argc) {
        path_ = argv[++in];
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(7);
      } else {
        argv[out++] = argv[in];
      }
    }
    *argc = out;
    argv[*argc] = nullptr;
  }

  void add(const std::string& metric, mfv::util::Json fields) {
    mfv::util::Json row = mfv::util::Json::object();
    row["metric"] = metric;
    if (fields.is_object())
      for (const auto& [key, value] : fields.members()) row[key] = value;
    rows_.push_back(std::move(row));
  }

  /// Attaches a named sub-document to the report — e.g. an
  /// obs::MetricsRegistry::to_json() snapshot taken after a sweep, so the
  /// JSON artifact carries the engine's own counters next to the wall-clock
  /// rows. Re-attaching the same key replaces the previous value.
  void attach(const std::string& key, mfv::util::Json value) {
    if (!attachments_.is_object()) attachments_ = mfv::util::Json::object();
    attachments_[key] = std::move(value);
  }

  /// Writes the report if a path is configured. Benches call this at the
  /// end of main; calling it with nothing recorded still writes a valid
  /// (empty) document so scripts can rely on the file existing.
  void flush() {
    if (path_.empty()) return;
    mfv::util::Json document = mfv::util::Json::object();
    document["bench"] = bench_;
    // The host the rows were measured on, so a trajectory file says
    // which core count and build it compares against.
    mfv::util::Json host = mfv::util::Json::object();
    host["nproc"] = static_cast<uint64_t>(std::thread::hardware_concurrency());
    host["build_type"] = MFV_BENCH_BUILD_TYPE;
    document["host"] = std::move(host);
    document["metrics"] = mfv::util::Json(rows_);
    if (attachments_.is_object()) document["attachments"] = attachments_;
    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return;
    }
    std::string text = document.dump(2);
    std::fwrite(text.data(), 1, text.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
  }

 private:
  std::string bench_;
  std::string path_;
  mfv::util::JsonArray rows_;
  mfv::util::Json attachments_;
};

/// One metric row: prints the legacy `METRIC k=v ...` line to stdout and
/// records the same fields for the JSON report.
inline void timing(const std::string& metric, const mfv::util::Json& fields) {
  std::string line = metric;
  if (fields.is_object()) {
    for (const auto& [key, value] : fields.members()) {
      line += ' ';
      line += key;
      line += '=';
      switch (value.type()) {
        case mfv::util::Json::Type::kString:
          line += value.as_string();
          break;
        case mfv::util::Json::Type::kDouble: {
          char buffer[64];
          std::snprintf(buffer, sizeof(buffer), "%.2f", value.as_double());
          line += buffer;
          break;
        }
        default:
          line += value.dump();
          break;
      }
    }
  }
  std::printf("%s\n", line.c_str());
  JsonReport::instance().add(metric, fields);
}

}  // namespace mfvbench
