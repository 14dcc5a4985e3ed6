#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

namespace mfvbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ms_since(Clock::time_point from) { return ms_between(from, Clock::now()); }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary summarize(std::vector<double> latencies_ms) {
  LatencySummary summary;
  summary.samples = latencies_ms.size();
  if (latencies_ms.empty()) return summary;
  summary.p50_ms = median(latencies_ms);
  std::sort(latencies_ms.begin(), latencies_ms.end());
  size_t n = latencies_ms.size();
  summary.tail_valid = n >= 11;
  size_t index = summary.tail_valid ? n - 11 : n - 1;
  summary.tail_ms = latencies_ms[index];
  summary.tail_percentile =
      summary.tail_valid ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)
                         : 100.0;
  return summary;
}

namespace {

double proc_status_kb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  size_t length = std::char_traits<char>::length(field);
  while (std::getline(status, line))
    if (line.compare(0, length, field) == 0) return std::stod(line.substr(length + 1));
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return proc_status_kb("VmHWM") / 1024.0; }
double current_rss_mb() { return proc_status_kb("VmRSS") / 1024.0; }

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void Report::metric(std::string name, double value, std::string unit, std::string note) {
  metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::unmeasured(std::string name, std::string reason) {
  unmeasured_.emplace_back(std::move(name), std::move(reason));
}

void Report::record(std::string key, std::string value) {
  records_.emplace_back(std::move(key), std::move(value));
}

void Report::fail(const std::string& message) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(failures_mutex_);
  failures_.push_back(message);
}

std::vector<std::string> Report::failures() const {
  std::lock_guard<std::mutex> lock(failures_mutex_);
  return failures_;
}

Tracer::Tracer(size_t capacity)
    : collector_(obs::SpanCollectorOptions{capacity, {}}, &registry_) {}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t op, uint64_t parent)
    : span_(tracer != nullptr ? &tracer->collector_ : nullptr, name, parent) {
  if (tracer == nullptr) return;
  span_.attr("op", std::to_string(op));
  std::ostringstream thread;
  thread << std::this_thread::get_id();
  span_.attr("tid", thread.str());
}

size_t Tracer::recorded() const { return collector_.snapshot().size(); }

double Tracer::median_ms(const std::string& name, size_t* count) const {
  std::vector<double> durations;
  for (const obs::SpanRecord& span : collector_.snapshot())
    if (span.name == name) durations.push_back(static_cast<double>(span.duration_us) / 1e3);
  if (count != nullptr) *count = durations.size();
  return durations.empty() ? -1.0 : median(durations);
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<obs::SpanRecord> spans = collector_.snapshot();
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const obs::SpanRecord& span : spans)
    if (span.parent != 0)
      children[span.parent].emplace_back(span.start_us, span.start_us + span.duration_us);

  std::map<std::string, SelfTime> by_name;
  for (const obs::SpanRecord& span : spans) {
    int64_t begin = span.start_us;
    int64_t end = span.start_us + span.duration_us;
    // Union of the child intervals, clipped to this span.
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = begin;
      for (auto [from, to] : intervals) {
        from = std::max(from, cursor);
        to = std::min(to, end);
        if (to > from) {
          covered += to - from;
          cursor = to;
        }
      }
    }
    SelfTime& entry = by_name[span.name];
    entry.name = span.name;
    ++entry.spans;
    entry.total_ms += static_cast<double>(span.duration_us) / 1e3;
    entry.self_ms += static_cast<double>(span.duration_us - covered) / 1e3;
  }
  std::vector<SelfTime> result;
  for (auto& [name, entry] : by_name) result.push_back(entry);
  return result;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::map<std::string, int> thread_ids;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const obs::SpanRecord& span : collector_.snapshot()) {
    std::string op = "0";
    std::string tid = "main";
    for (const auto& [key, value] : span.attributes) {
      if (key == "op") op = value;
      if (key == "tid") tid = value;
    }
    auto [it, inserted] = thread_ids.emplace(tid, static_cast<int>(thread_ids.size()) + 1);
    util::Json event = util::Json::object();
    event["name"] = span.name;
    event["cat"] = span.name.substr(0, span.name.find('.'));
    event["ph"] = "X";
    event["ts"] = span.start_us;
    event["dur"] = span.duration_us;
    event["pid"] = 1;
    event["tid"] = it->second;
    util::Json event_args = util::Json::object();
    event_args["op"] = op;
    event_args["id"] = span.id;
    event_args["parent"] = span.parent;
    event["args"] = std::move(event_args);
    out << (first ? "" : ",\n") << event.dump();
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Samples::add(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  values_[name].push_back(value);
}

void Samples::sum(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_[name] += value;
}

std::vector<double> Samples::values(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = values_.find(name);
  return it == values_.end() ? std::vector<double>{} : it->second;
}

bool Samples::has_total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_.count(name) > 0;
}

double Samples::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

PhaseResult timed_phase(unsigned threads, double seconds, std::atomic<uint64_t>& next,
                        const std::function<bool(unsigned, uint64_t)>& op) {
  PhaseResult result;
  std::mutex mutex;
  const double cpu_before = cpu_seconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  run_threads(threads, [&](unsigned thread) {
    std::vector<double> latencies;
    while (Clock::now() < deadline) {
      uint64_t index = next.fetch_add(1);
      Clock::time_point op_start = Clock::now();
      op(thread, index);
      latencies.push_back(ms_since(op_start));
    }
    std::lock_guard<std::mutex> lock(mutex);
    result.latencies_ms.insert(result.latencies_ms.end(), latencies.begin(), latencies.end());
  });
  result.wall_ms = ms_since(start);
  result.cpu_seconds = cpu_seconds() - cpu_before;
  return result;
}

Setups::Setups(RunContext& context, std::function<void()> teardown,
               std::function<void()> setup)
    : context_(context), teardown_(std::move(teardown)), setup_(std::move(setup)) {}

void Setups::run(int repeats) {
  for (int i = 0; i < repeats; ++i) {
    teardown_();
    Clock::time_point start = seconds_.empty() ? context_.process_start : Clock::now();
    setup_();
    seconds_.push_back(ms_since(start) / 1e3);
  }
}

void Setups::emit() {
  std::ostringstream all;
  for (double value : seconds_) all << value << ' ';
  context_.report.record("setup_repeats_s", all.str());
  context_.report.metric("setup_s", median(seconds_), "s",
                         "median of " + std::to_string(seconds_.size()) + " set-ups");
}

void emit_end_to_end(RunContext& context, const PhaseResult& phase) {
  LatencySummary summary = summarize(phase.latencies_ms);
  const double wall_s = phase.wall_ms / 1e3;
  const std::string n = "n=" + std::to_string(summary.samples);
  Report& report = context.report;
  report.metric("throughput_per_s", static_cast<double>(summary.samples) / wall_s, "1/s",
                n + " ops in " + std::to_string(wall_s) + " s");
  report.metric("p50_ms", summary.p50_ms, "ms", n);
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%.2f, n=%zu, %s", summary.tail_percentile,
                summary.samples,
                summary.tail_valid ? "10 samples beyond" : "fewer than 11 samples: max");
  report.metric("tail_ms", summary.tail_ms, "ms", tail_note);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of the benchmark process");
  report.record("ops_timed", std::to_string(summary.samples));
  report.record("tail_percentile", tail_note);
  report.record("cores_busy", std::to_string(phase.cpu_seconds / wall_s));
}

void traced_phases(RunContext& context, Tracer* tracer, unsigned threads, double seconds,
                   std::atomic<uint64_t>& next,
                   const std::function<bool(unsigned, uint64_t)>& op) {
  // Five windows a side: each one long enough to hold several operations,
  // short enough that the host's speed barely moves between a pair.
  constexpr int kWindows = 5;
  PhaseResult untraced, traced;
  auto append = [](PhaseResult& into, const PhaseResult& window) {
    into.latencies_ms.insert(into.latencies_ms.end(), window.latencies_ms.begin(),
                             window.latencies_ms.end());
    into.wall_ms += window.wall_ms;
    into.cpu_seconds += window.cpu_seconds;
  };
  for (int window = 0; window < kWindows; ++window) {
    context.tracer = nullptr;
    append(untraced, timed_phase(threads, seconds / (2 * kWindows), next, op));
    context.tracer = tracer;
    append(traced, timed_phase(threads, seconds / (2 * kWindows), next, op));
  }

  auto throughput = [](const PhaseResult& phase) {
    return static_cast<double>(phase.latencies_ms.size()) / (phase.wall_ms / 1e3);
  };
  const double plain = throughput(untraced);
  const double with_spans = throughput(traced);
  context.samples.add("trace.overhead_pct", 100.0 * (plain / with_spans - 1.0));
  context.samples.add("proc.cores_busy", untraced.cpu_seconds / (untraced.wall_ms / 1e3));
  double busy_ms = 0.0;
  for (double latency : traced.latencies_ms) busy_ms += latency;
  context.samples.add("scenario.parallel_efficiency",
                      busy_ms / (static_cast<double>(threads) * traced.wall_ms));
  LatencySummary a = summarize(untraced.latencies_ms);
  LatencySummary b = summarize(traced.latencies_ms);
  context.report.record("ops_timed", std::to_string(a.samples) + " untraced, " +
                                         std::to_string(b.samples) + " traced");
  std::printf("TRACE_OVERHEAD throughput %.4f -> %.4f /s (%+.2f%%), p50 %.3f -> %.3f ms, "
              "n=%zu/%zu in %d alternating windows a side\n",
              plain, with_spans, 100.0 * (plain / with_spans - 1.0), a.p50_ms, b.p50_ms,
              a.samples, b.samples, kWindows);
}

void run_threads(unsigned threads, const std::function<void(unsigned)>& fn) {
  std::vector<std::thread> crew;
  crew.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) crew.emplace_back(fn, i);
  for (std::thread& thread : crew) thread.join();
}

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace mfvbench
