#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "rf/dataset.h"

namespace perfbench {

namespace {

// The fixed fleet every workload draws its buildings from. Changing any of
// these changes every workload's model and invalidates the baseline.
constexpr std::uint64_t kFleetSeed = 2022;
constexpr std::size_t kFleetSize = 16;
constexpr int kRecordsPerFloor = 150;
constexpr std::size_t kLabelsPerFloor = 4;

std::mutex g_spans_mutex;

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + items[i];
  }
  return out + "]";
}

const std::vector<Workload>& Workloads() {
  // Fleet building 7: 5 floors, 70 MACs, micro-F ~0.90. Buildings 0, 1, 3
  // and 7 differ in floors (4, 7, 2, 5) and MACs (284, 175, 144, 70).
  static const std::vector<Workload> kWorkloads = {
      {.name = "scan-paced",
       .buildings = {7},
       .traffic = Traffic::kPaced,
       .connections = 4,
       .predict_rate = 600.0,
       .daemon_threads = 2},
      {.name = "bulk-fleet",
       .buildings = {0, 1, 3, 7},
       .traffic = Traffic::kBulk,
       .connections = 4,
       .daemon_threads = 0},
      {.name = "ingest-live",
       .buildings = {7},
       .traffic = Traffic::kIngestLive,
       .connections = 2,
       .predict_rate = 500.0,
       .submit_rate = 300.0,
       .daemon_threads = 2},
  };
  return kWorkloads;
}

std::size_t Cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t DaemonThreads(const Workload& workload) {
  return workload.daemon_threads == 0 ? Cores() : workload.daemon_threads;
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return workload;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

grafics::core::GraficsConfig ModelConfig() { return {}; }

std::vector<Building> MakeBuildings(const Workload& workload) {
  const std::vector<grafics::synth::BuildingConfig> fleet =
      grafics::synth::MicrosoftLikeFleet(kFleetSize, kFleetSeed,
                                         kRecordsPerFloor);
  std::vector<Building> buildings;
  for (const std::size_t index : workload.buildings) {
    const grafics::synth::BuildingConfig& config = fleet.at(index);
    grafics::synth::BuildingSimulator simulator = config.MakeSimulator();
    grafics::rf::Dataset dataset = simulator.GenerateDataset();
    grafics::Rng label_rng(kFleetSeed ^ (0x1ABE1ULL + index));
    dataset.KeepLabelsPerFloor(kLabelsPerFloor, label_rng);
    buildings.push_back({config.spec.name, config.spec.num_floors,
                         dataset.DistinctMacCount(), dataset.records(),
                         std::move(simulator)});
  }
  return buildings;
}

std::vector<grafics::rf::SignalRecord> MakeRecords(
    const Building& building, std::uint64_t seed, Stream stream,
    std::size_t count, std::vector<grafics::rf::FloorId>* truth) {
  grafics::synth::BuildingSimulator simulator = building.simulator;
  const grafics::synth::BuildingSpec& spec = simulator.spec();
  std::seed_seq seeds{seed, static_cast<std::uint64_t>(stream)};
  std::mt19937_64 rng(seeds);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> floor_of(0, spec.num_floors - 1);
  std::vector<grafics::rf::SignalRecord> records;
  records.reserve(count);
  if (truth != nullptr) truth->clear();
  while (records.size() < count) {
    const int floor = floor_of(rng);
    const grafics::synth::Point position = {
        unit(rng) * spec.floor_width_m, unit(rng) * spec.floor_depth_m,
        static_cast<double>(floor) * spec.floor_height_m + 1.2};
    grafics::rf::SignalRecord record = simulator.MeasureAt(position, floor);
    if (record.empty()) continue;  // nothing detectable: not a scan
    record.set_floor(std::nullopt);
    records.push_back(std::move(record));
    if (truth != nullptr) truth->push_back(floor);
  }
  return records;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::runtime_error("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

bool PercentileSupported(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n >= rank + 10;
}

double WindowedPercentile(const std::vector<double>& samples,
                          std::size_t windows, double q) {
  const std::size_t size = samples.size() / windows;
  if (size == 0) throw std::runtime_error("fewer samples than windows");
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(w * size);
    const auto end = w + 1 == windows
                         ? samples.end()
                         : begin + static_cast<std::ptrdiff_t>(size);
    per_window.push_back(Percentile(std::vector<double>(begin, end), q));
  }
  return Percentile(per_window, 0.5);
}

bool WindowedSupported(std::size_t n, std::size_t windows, double q) {
  return PercentileSupported(n / windows, q);
}

int SpanLog::Begin(const char* name, int parent, std::uint64_t request) {
  return Add(name, Clock::now(), Clock::time_point{}, parent, request);
}

void SpanLog::End(int id) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(g_spans_mutex);
  spans_[static_cast<std::size_t>(id)].end = now;
}

int SpanLog::Add(const char* name, Clock::time_point start,
                 Clock::time_point end, int parent, std::uint64_t request) {
  const std::lock_guard<std::mutex> lock(g_spans_mutex);
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> durations;
  for (const Span& span : spans_) {
    if (name == span.name) durations.push_back(ToUs(span.end - span.start));
  }
  return durations;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  using Interval = std::pair<Clock::time_point, Clock::time_point>;
  std::vector<std::vector<Interval>> covered(spans.size());
  for (const Span& child : spans) {
    if (child.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(child.parent)];
    const Clock::time_point start = std::max(child.start, parent.start);
    const Clock::time_point end = std::min(child.end, parent.end);
    if (start < end) {
      covered[static_cast<std::size_t>(child.parent)].emplace_back(start, end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::sort(covered[i].begin(), covered[i].end());
    Clock::duration union_length{0};
    Clock::time_point reach = spans[i].start;
    for (const auto& [start, end] : covered[i]) {
      const Clock::time_point from = std::max(start, reach);
      if (end > from) union_length += end - from;
      reach = std::max(reach, end);
    }
    self[i] = ToUs(spans[i].end - spans[i].start - union_length);
  }
  return self;
}

double SpanLog::ChildCoverage(const std::string& name) const {
  const std::vector<double> self = SelfTimesUs(spans_);
  double total = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    total += ToUs(spans_[i].end - spans_[i].start);
    uncovered += self[i];
  }
  return total > 0.0 ? (total - uncovered) / total : 0.0;
}

void SpanLog::WriteJson(const std::string& path) const {
  std::string out = "[";
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  const std::vector<double> self = SelfTimesUs(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    JsonObject entry;
    entry.String("name", span.name);
    entry.Number("start_us", ToUs(span.start - origin));
    entry.Number("end_us", ToUs(span.end - origin));
    entry.Integer("parent", span.parent);
    entry.Integer("request", static_cast<long long>(span.request));
    entry.Number("self_us", self[i]);
    out += (i == 0 ? "\n" : ",\n") + entry.Render();
  }
  WriteFile(path, out + "\n]\n");
}

std::vector<Clock::duration> PoissonSchedule(double rate, double seconds,
                                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<Clock::duration> schedule;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    schedule.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t)));
  }
  return schedule;
}

std::vector<Clock::duration> EvenSchedule(std::size_t count, double seconds) {
  std::vector<Clock::duration> schedule;
  schedule.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    schedule.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds * static_cast<double>(i) /
                                      static_cast<double>(count))));
  }
  return schedule;
}

std::vector<double> RunOpenLoop(
    const std::vector<Clock::duration>& schedule, Clock::time_point start,
    const std::function<void(std::size_t, Clock::time_point)>& send) {
  std::vector<double> lag_ms;
  lag_ms.reserve(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Clock::time_point due = start + schedule[i];
    std::this_thread::sleep_until(due);
    lag_ms.push_back(ToMs(Clock::now() - due));
    send(i, due);
  }
  return lag_ms;
}

void JsonObject::Number(const std::string& key, double value) {
  fields_.emplace_back(key, FormatNumber(value));
}
void JsonObject::Integer(const std::string& key, long long value) {
  fields_.emplace_back(key, std::to_string(value));
}
void JsonObject::String(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonQuote(value));
}
void JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}
void JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}
std::string JsonObject::Render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

std::string MetricSet::Render() const {
  JsonObject out;
  for (const auto& [name, entry] : metrics_) {
    JsonObject metric;
    metric.Number("value", entry.first);
    metric.String("unit", entry.second);
    out.Raw(name, metric.Render());
  }
  return out.Render();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

Args::Args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      throw std::runtime_error("expected --flag value, got '" + flag + "'");
    }
    values_[flag] = argv[i + 1];
  }
  if (argc % 2 == 0) {
    throw std::runtime_error(std::string("flag without value: ") +
                             argv[argc - 1]);
  }
}

std::string Args::Get(const std::string& flag,
                      const std::string& fallback) const {
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : it->second;
}

std::string Args::Require(const std::string& flag) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) throw std::runtime_error("missing " + flag);
  return it->second;
}

std::uint64_t Args::Unsigned(const std::string& flag,
                             std::uint64_t fallback) const {
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : std::stoull(it->second);
}

}  // namespace perfbench
