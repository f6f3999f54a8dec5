// Shared pieces of the benchmark programs: the workload catalog, the
// deterministic input generator, percentile arithmetic, in-memory spans,
// the open-loop pacer and a small JSON writer.
//
// Everything here uses only the public surface of the model (synth presets,
// rf records, core::Grafics), so a later change to module internals cannot
// break the untraced run through this file.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/grafics.h"
#include "rf/signal_record.h"
#include "synth/presets.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ToMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double ToUs(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double ToSeconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- workloads -------------------------------------------------------------

/// How a workload's predicts reach the daemon.
enum class Traffic {
  kPaced,       // open loop: single-record frames at a Poisson rate
  kBulk,        // closed loop: 64-record frames, one in flight per connection
  kIngestLive,  // open loop: paced predicts beside paced submits
};

/// One of the benchmark's traffic mixes. Buildings are fixed per workload
/// (drawn once from a MicrosoftLikeFleet) so that runs with different seeds
/// measure the same system; the seed draws the queries, the ingest stream
/// and the arrival times.
struct Workload {
  std::string name;
  /// Indices into the fixed Microsoft-like fleet (see MakeBuildings). The
  /// first one also receives the ingest stream.
  std::vector<std::size_t> buildings;
  Traffic traffic = Traffic::kPaced;
  /// Predict connections (at most the core count).
  std::size_t connections = 4;
  /// Open-loop predict frames per second (kPaced, kIngestLive).
  double predict_rate = 0.0;
  /// Open-loop submit frames per second during the measured phase
  /// (kIngestLive only; the other workloads ingest after it).
  double submit_rate = 0.0;
  /// Daemon --threads; 0 means the core count.
  std::size_t daemon_threads = 2;
};

// Fixed parts of every workload's lifecycle (see README.md).
/// Ingest fold trigger: the daemon folds every this many records and never
/// on a timer, so fold boundaries (and the folded model) are deterministic.
inline constexpr std::size_t kFoldRecords = 10;
/// Daemon --compact-every-n-folds.
inline constexpr std::size_t kCompactEveryFolds = 100;
/// Records per bulk PredictBatch frame.
inline constexpr std::size_t kBulkFrameRecords = 64;
/// Minimum samples so that a p99 or a p90 has ten samples beyond it.
inline constexpr std::size_t kMinP99Samples = 1010;
inline constexpr std::size_t kMinP90Samples = 101;
/// Percentiles are the median over this many consecutive windows of each
/// window's percentile, so one burst of host noise moves one window only.
/// Every window supports its percentile, so phases run longer than
/// --seconds when needed. Predicts are plentiful and get more windows.
inline constexpr std::size_t kWindows = 3;
inline constexpr std::size_t kPredictWindows = 5;
/// Submit rate of the quiet ingest phase that follows the measured phase of
/// scan-paced and bulk-fleet.
inline constexpr double kQuietSubmitRate = 500.0;
/// Gate probes per building after drain and after restarts.
inline constexpr std::size_t kProbeRecords = 500;
/// Daemon launches timed for setup_s and restarts timed for restart_s;
/// each reports the median.
inline constexpr int kSetupLaunches = 5;
inline constexpr int kRestarts = 15;

/// The catalog, in the order run.py lists it. Throws for unknown names.
const std::vector<Workload>& Workloads();
const Workload& FindWorkload(const std::string& name);

/// The model configuration every workload trains with: the library
/// defaults, so a change to a default shows up in the benchmark.
grafics::core::GraficsConfig ModelConfig();

/// A generated building: its training records (4 labels per floor, the
/// rest unlabeled) and the simulator state after generating them, from
/// which held-out records are drawn.
struct Building {
  std::string name;
  int floors = 0;
  std::size_t macs = 0;
  std::vector<grafics::rf::SignalRecord> train;
  grafics::synth::BuildingSimulator simulator;
};

/// Daemon --threads for `workload` on this host.
std::size_t DaemonThreads(const Workload& workload);
/// Cores of this host (at least 1).
std::size_t Cores();

std::vector<Building> MakeBuildings(const Workload& workload);

/// Independent record streams drawn from one building; each stream of each
/// seed yields different records, and no two streams share one.
enum class Stream : std::uint64_t {
  kQueries = 1,  // measured predicts
  kIngest = 2,   // submitted (unlabeled) records
  kProbe = 3,    // drain/restart gate probes
  kTrace = 4,    // traced-run probes and replicas
  kStack = 5,    // traced-run stack-efficiency burst
};

/// `count` held-out records of `building` at positions drawn from
/// (seed, stream). Labels are stripped; the true floor of record i is
/// (*truth)[i] when `truth` is non-null.
std::vector<grafics::rf::SignalRecord> MakeRecords(
    const Building& building, std::uint64_t seed, Stream stream,
    std::size_t count, std::vector<grafics::rf::FloorId>* truth = nullptr);

// --- percentiles -------------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]) of `samples`; +inf samples stand
/// for failed requests. Throws on an empty sample.
double Percentile(std::vector<double> samples, double q);

/// The reporting rule: a percentile is supported only when at least ten
/// samples lie beyond it, i.e. n - ceil(q * n) >= 10.
bool PercentileSupported(std::size_t n, double q);

/// Splits `samples` (in time order) into `windows` consecutive slices of
/// equal count (the remainder joins the last) and returns the median of
/// the slices' q-th percentiles.
double WindowedPercentile(const std::vector<double>& samples,
                          std::size_t windows, double q);
/// True when each of the `windows` slices of n samples supports q.
bool WindowedSupported(std::size_t n, std::size_t windows, double q);

// --- spans -------------------------------------------------------------------

/// One timed call: name, interval, the span that caused it (-1 for a root)
/// and the request it belongs to.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Spans kept in memory while the run goes, written out when it ends.
class SpanLog {
 public:
  /// Opens a span; returns its id for End and for children's `parent`.
  int Begin(const char* name, int parent = -1, std::uint64_t request = 0);
  void End(int id);
  /// Records an already-timed interval.
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::uint64_t request = 0);

  /// Durations (microseconds) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Sum over spans called `name` of the time their children cover, over
  /// the sum of their durations.
  double ChildCoverage(const std::string& name) const;
  /// JSON array of {name, start_us, end_us, parent, request, self_us},
  /// times relative to the first span.
  void WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per span: its duration minus the part of its interval covered by the
/// union of its children (clipped to the span), in microseconds.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// Opens a span on construction and closes it on destruction; a no-op when
/// the log is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1,
             std::uint64_t request = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent, request)
                                      : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// --- open-loop pacing --------------------------------------------------------

/// Arrival offsets of a Poisson process at `rate` per second over
/// `seconds`, from `seed`.
std::vector<Clock::duration> PoissonSchedule(double rate, double seconds,
                                             std::uint64_t seed);
/// `count` arrivals evenly spaced over `seconds`.
std::vector<Clock::duration> EvenSchedule(std::size_t count, double seconds);

/// Calls send(i, due_i) for every event at start + schedule[i], never
/// early. A send that blocks delays every later event; the returned
/// per-event lag (milliseconds from due time to the call) shows it, so a
/// stalled generator cannot hide behind a fast daemon.
std::vector<double> RunOpenLoop(
    const std::vector<Clock::duration>& schedule, Clock::time_point start,
    const std::function<void(std::size_t, Clock::time_point)>& send);

// --- results -----------------------------------------------------------------

/// A flat JSON object writer for the programs' result files.
class JsonObject {
 public:
  void Number(const std::string& key, double value);
  void Integer(const std::string& key, long long value);
  void String(const std::string& key, const std::string& value);
  void Bool(const std::string& key, bool value);
  /// `json` must already be valid JSON (a nested object or array).
  void Raw(const std::string& key, const std::string& json);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Named metrics with units, rendered as {"name": {"value": v, "unit": u}}.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string Render() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// `text` as a JSON string literal.
std::string JsonQuote(const std::string& text);
/// A JSON array of `items`, each already valid JSON.
std::string JsonArray(const std::vector<std::string>& items);

void WriteFile(const std::string& path, const std::string& text);

/// Minimal "--flag value" parser shared by the programs.
class Args {
 public:
  Args(int argc, char** argv);
  std::string Get(const std::string& flag, const std::string& fallback) const;
  std::string Require(const std::string& flag) const;
  std::uint64_t Unsigned(const std::string& flag, std::uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace perfbench
