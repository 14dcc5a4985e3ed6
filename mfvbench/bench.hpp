// Shared plumbing of the end-to-end benchmark: run arguments, latency
// summaries, process counters, the report every workload fills, and the
// span recorder behind traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace mfvbench {

namespace obs = mfv::obs;
namespace util = mfv::util;

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);
double ms_since(Clock::time_point from);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Tiny inputs for the benchmark's own tests.
  bool smoke = false;
  /// Corrupt one sampled answer before its correctness check (the check
  /// must trip; smoke tests assert it does).
  bool corrupt = false;
  /// Chrome trace-event output of a traced run ("" = none).
  std::string trace_out;
  /// Directory for the daemon's unix socket (relative to the cwd).
  std::string workdir = ".bench_build/run";
};

/// Median and tail of one latency sample set. The tail is the highest
/// percentile with at least ten samples beyond it: the 11th-largest
/// sample, at percentile 100 * (n - 10) / n.
struct LatencySummary {
  size_t samples = 0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_percentile = 0.0;
  /// False when fewer than 11 samples exist (the tail is then the max).
  bool tail_valid = false;
};
LatencySummary summarize(std::vector<double> latencies_ms);
double median(std::vector<double> values);

/// Process-level readings from /proc and getrusage.
double peak_rss_mb();
double current_rss_mb();
double cpu_seconds();

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Free-form context printed beside it (sample count, percentile, ...).
  std::string note;
};

/// What one run reports. Workloads append metrics and count operations;
/// main() prints the human lines and the final JSON object.
class Report {
 public:
  void metric(std::string name, double value, std::string unit, std::string note = "");
  /// Records a per-layer metric that this workload cannot observe, with
  /// the reason (printed; never emitted as a number).
  void unmeasured(std::string name, std::string reason);
  void record(std::string key, std::string value);

  /// Thread-safe operation accounting. A failed correctness check is a
  /// failed operation; every failure message is kept.
  void attempt(uint64_t count = 1) { attempted_.fetch_add(count); }
  void fail(const std::string& message);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::pair<std::string, std::string>>& records() const {
    return records_;
  }
  const std::vector<std::pair<std::string, std::string>>& unmeasured() const {
    return unmeasured_;
  }
  std::vector<std::string> failures() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> records_;
  std::vector<std::pair<std::string, std::string>> unmeasured_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex failures_mutex_;
  std::vector<std::string> failures_;
};

/// Span recording for traced runs: an obs::SpanCollector sized to hold
/// every span of the run, plus the derived per-layer numbers. A null
/// Tracer* (untraced runs) makes every Scope a no-op.
class Tracer {
 public:
  explicit Tracer(size_t capacity);

  obs::MetricsRegistry& registry() { return registry_; }

  /// Span around one call into a layer. `op` ties the spans of one
  /// operation together (0 = set-up / replay work outside an operation).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op, uint64_t parent = 0);
    uint64_t id() const { return span_.id(); }
    void end() { span_.end(); }

   private:
    obs::TraceSpan span_;
  };

  /// Median duration (ms) of the spans named `name`; 0 samples -> -1.
  double median_ms(const std::string& name, size_t* count = nullptr) const;
  /// Per-name self time: duration minus the union of child intervals.
  struct SelfTime {
    std::string name;
    size_t spans = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<SelfTime> self_times() const;
  uint64_t dropped() const { return collector_.dropped(); }
  size_t recorded() const;

  /// Writes every span as Chrome trace-event JSON (Perfetto opens it).
  bool write_chrome_trace(const std::string& path) const;

 private:
  obs::MetricsRegistry registry_;
  obs::SpanCollector collector_;
};

/// Per-layer samples gathered during a traced run, keyed by metric name:
/// `add` keeps every value (reported as a median or mean), `sum` keeps a
/// running total (for ratios). Thread-safe.
class Samples {
 public:
  void add(const std::string& name, double value);
  void sum(const std::string& name, double value);
  std::vector<double> values(const std::string& name) const;
  bool has_total(const std::string& name) const;
  double total(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> values_;
  std::map<std::string, double> totals_;
};

/// One timed phase of closed-loop workers.
struct PhaseResult {
  /// Latency of every operation the phase ran (failed ones included).
  std::vector<double> latencies_ms;
  double wall_ms = 0.0;
  double cpu_seconds = 0.0;
};

/// Runs `threads` closed-loop workers until `seconds` have passed: each
/// takes the next operation index from `next` and runs `op(thread, index)`
/// (false = the operation failed; it has already recorded why). Operations
/// in flight at the deadline finish and count.
PhaseResult timed_phase(unsigned threads, double seconds, std::atomic<uint64_t>& next,
                        const std::function<bool(unsigned, uint64_t)>& op);

/// Calls `fn(thread_index)` on `threads` threads and joins them all.
void run_threads(unsigned threads, const std::function<void(unsigned)>& fn);

/// Deterministic 64-bit mixing of the run seed with a stream tag.
uint64_t mix_seed(uint64_t seed, uint64_t stream);

struct RunContext {
  Args args;
  Report report;
  /// Non-null while spans are being recorded (set-up, the traced windows
  /// and the replays of a traced run); every Scope is a no-op otherwise.
  Tracer* tracer = nullptr;
  Samples samples;
  Clock::time_point process_start;

  bool tracing() const { return tracer != nullptr; }
  /// Adds a per-layer sample only while tracing.
  void sample(const std::string& name, double value) {
    if (tracing()) samples.add(name, value);
  }
  void sample_sum(const std::string& name, double value) {
    if (tracing()) samples.sum(name, value);
  }
};

/// setup_s: the median of several complete set-ups, run in two batches.
/// The first batch runs before the timed phase (its first set-up timed
/// from process start, its last kept for the run), the second after the
/// run's checks. One batch lasts a few seconds and so samples the host's
/// speed at one moment; two, half a minute apart, sample both ends of the
/// run.
class Setups {
 public:
  /// `setup` builds one set-up; `teardown` destroys the current one.
  Setups(RunContext& context, std::function<void()> teardown, std::function<void()> setup);
  /// Times `repeats` new set-ups, each built after tearing down the one
  /// before it (untimed); the last stays up.
  void run(int repeats);
  /// Appends setup_s (the median of every set-up timed) to the report and
  /// records each one.
  void emit();

 private:
  RunContext& context_;
  std::function<void()> teardown_;
  std::function<void()> setup_;
  std::vector<double> seconds_;
};

/// Appends the end-to-end metrics of an untraced phase, all but setup_s,
/// to the report.
void emit_end_to_end(RunContext& context, const PhaseResult& phase);

/// The timed phase of a traced run: alternating untraced and traced
/// windows of the same operation, `seconds` in all, so host drift falls on
/// both sides alike. Samples the tracing overhead (untraced over traced
/// throughput), cores busy while untraced, and the load's parallel
/// efficiency while traced (op time / (threads x wall)). Leaves
/// `context.tracer` set to `tracer`.
void traced_phases(RunContext& context, Tracer* tracer, unsigned threads, double seconds,
                   std::atomic<uint64_t>& next,
                   const std::function<bool(unsigned, uint64_t)>& op);

// Workload entry points (one translation unit each).
void run_sweep(RunContext& context);
void run_precheck(RunContext& context);
void run_whatif(RunContext& context);
void run_explore(RunContext& context);

}  // namespace mfvbench
