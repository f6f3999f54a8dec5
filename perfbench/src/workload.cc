#include "workload.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/inference_context.h"
#include "core/metrics.h"
#include "serve/client.h"
#include "traffic.h"

namespace perfbench {

namespace {

namespace core = grafics::core;
using grafics::rf::FloorId;
using grafics::rf::SignalRecord;
using Answers = std::vector<std::optional<FloorId>>;

constexpr auto kDrainTimeout = std::chrono::seconds(60);
/// Lets every thread of a phase start before the first scheduled send.
constexpr auto kLeadIn = std::chrono::milliseconds(20);
/// Records per bulk-fleet pool, per second of run and per model.
constexpr double kBulkPoolRate = 5000.0;

/// Runs a function on its own thread; Join rethrows what it threw.
class Background {
 public:
  explicit Background(std::function<void()> body)
      : thread_([this, body = std::move(body)] {
          try {
            body();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~Background() {
    if (thread_.joinable()) thread_.join();
  }
  Background(const Background&) = delete;
  Background& operator=(const Background&) = delete;

  void Join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;
  std::thread thread_;  // last: starts once error_ exists
};

/// Sets a flag when it goes out of scope, so a poller stops on any exit.
struct RaiseOnExit {
  std::atomic<bool>& flag;
  ~RaiseOnExit() { flag.store(true); }
};

/// A Poisson schedule at `rate` over at least `seconds` with at least
/// `min_count` arrivals.
std::vector<Clock::duration> PoissonAtLeast(double rate, double seconds,
                                            std::size_t min_count,
                                            std::uint64_t seed) {
  for (double span = seconds;; span *= 1.1) {
    std::vector<Clock::duration> schedule = PoissonSchedule(rate, span, seed);
    if (schedule.size() >= min_count) return schedule;
  }
}

std::size_t Mismatches(const Answers& served, const Answers& expected) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (served[i] != expected[i]) ++bad;
  }
  return bad;
}

Answers Reference(const core::Grafics& model,
                  const std::vector<SignalRecord>& records) {
  core::BatchPredictOptions options;
  options.num_threads = Cores();
  return model.PredictBatch(records, options);
}

void Flip(std::optional<FloorId>& answer) {
  answer = answer.has_value() ? *answer + 1 : 0;
}

/// Adds one span per request, covering send to reply.
void AddRequestSpans(SpanLog* spans, const char* name,
                     const std::vector<RequestOutcome>& requests,
                     std::uint64_t first_id) {
  if (spans == nullptr) return;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    spans->Add(name, requests[i].sent, requests[i].done, -1, first_id + i);
  }
}

/// Median of a non-empty sample.
double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

std::vector<double> Latencies(const std::vector<RequestOutcome>& requests) {
  std::vector<double> latencies;
  latencies.reserve(requests.size());
  for (const RequestOutcome& request : requests) {
    latencies.push_back(request.latency_ms);
  }
  return latencies;
}

std::size_t Failures(const std::vector<RequestOutcome>& requests) {
  return static_cast<std::size_t>(
      std::count_if(requests.begin(), requests.end(),
                    [](const RequestOutcome& r) { return r.failed; }));
}

/// Trains every building of the fleet, saves the models into `dir` and
/// loads them back into `fleet`; returns the seconds Train took in total.
double TrainFleet(Fleet& fleet, const std::string& dir, SpanLog* spans) {
  double seconds = 0.0;
  for (const Building& building : fleet.buildings) {
    core::Grafics model(ModelConfig());
    const Clock::time_point start = Clock::now();
    model.Train(building.train);
    const Clock::time_point end = Clock::now();
    if (spans != nullptr) spans->Add("core.train", start, end);
    seconds += ToSeconds(end - start);
    const std::string path = dir + "/" + building.name + ".bin";
    model.SaveModel(path);
    fleet.names.push_back(building.name);
    fleet.artifacts.push_back(path);
    fleet.models.push_back(core::Grafics::LoadModel(path));
  }
  return seconds;
}

/// Median over windows of the answered records per second of each window.
double WindowedRate(const std::vector<RequestOutcome>& requests,
                    std::size_t records_per_request) {
  const std::size_t size = requests.size() / kPredictWindows;
  std::vector<double> rates;
  for (std::size_t w = 0; w < kPredictWindows; ++w) {
    const std::size_t begin = w * size;
    const std::size_t end =
        w + 1 == kPredictWindows ? requests.size() : begin + size;
    Clock::time_point first = requests[begin].due;
    Clock::time_point last = first;
    std::size_t answered = 0;
    for (std::size_t i = begin; i < end; ++i) {
      first = std::min(first, requests[i].due);
      last = std::max(last, requests[i].done);
      if (!requests[i].failed) answered += records_per_request;
    }
    rates.push_back(static_cast<double>(answered) / ToSeconds(last - first));
  }
  return Median(rates);
}

}  // namespace

DaemonConfig FleetDaemon(const RunOptions& options, const Fleet& fleet,
                         const std::string& dir) {
  DaemonConfig config;
  config.binary = options.daemon_binary;
  for (std::size_t m = 0; m < fleet.names.size(); ++m) {
    config.models.emplace_back(fleet.names[m], fleet.artifacts[m]);
  }
  config.dir = dir;
  config.threads = DaemonThreads(FindWorkload(options.workload));
  return config;
}

RunOutcome RunWorkload(const RunOptions& options, SpanLog* spans) {
  namespace fs = std::filesystem;
  const Workload& workload = FindWorkload(options.workload);
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);
  RunOutcome outcome;
  std::vector<std::string>& gates = outcome.gate_failures;
  MetricSet& metrics = outcome.metrics;

  // --- training and inputs (all from the seed) ------------------------------
  Fleet& fleet = outcome.fleet;
  fleet.buildings = MakeBuildings(workload);
  const double train_s = TrainFleet(fleet, options.work_dir, spans);
  const std::size_t model_count = fleet.names.size();
  const std::string& ingest_model = fleet.names.front();
  const Building& ingest_building = fleet.buildings.front();

  const bool paced = workload.traffic != Traffic::kBulk;
  const bool live = workload.traffic == Traffic::kIngestLive;
  const std::size_t min_p90 = kWindows * kMinP90Samples;
  const std::size_t min_predicts = kPredictWindows * kMinP90Samples;
  std::vector<Clock::duration> predict_schedule;
  std::vector<SignalRecord> queries;
  std::vector<FloorId> query_truth;
  std::vector<std::vector<SignalRecord>> pools;
  std::vector<std::vector<FloorId>> pool_truth;
  if (paced) {
    predict_schedule = PoissonAtLeast(workload.predict_rate, options.seconds,
                                      min_predicts, options.seed);
    queries = MakeRecords(ingest_building, options.seed, Stream::kQueries,
                          predict_schedule.size(), &query_truth);
  } else {
    // Enough fresh records for the whole run at a generous rate.
    const std::size_t frames_per_model = std::max<std::size_t>(
        static_cast<std::size_t>(options.seconds * kBulkPoolRate) /
            kBulkFrameRecords,
        min_predicts);
    pools.resize(model_count);
    pool_truth.resize(model_count);
    std::vector<std::thread> makers;
    for (std::size_t m = 0; m < model_count; ++m) {
      makers.emplace_back([&, m] {
        pools[m] = MakeRecords(fleet.buildings[m], options.seed,
                               Stream::kQueries,
                               frames_per_model * kBulkFrameRecords,
                               &pool_truth[m]);
      });
    }
    for (std::thread& maker : makers) maker.join();
  }
  const double submit_rate = live ? workload.submit_rate : kQuietSubmitRate;
  const double ingest_seconds = live ? options.seconds : 0.0;
  std::size_t submit_count =
      std::max(static_cast<std::size_t>(ingest_seconds * submit_rate),
               min_p90 * kFoldRecords);
  submit_count -= submit_count % kFoldRecords;
  const std::size_t folds = submit_count / kFoldRecords;
  const std::vector<Clock::duration> submit_schedule = EvenSchedule(
      submit_count, static_cast<double>(submit_count) / submit_rate);
  const std::vector<SignalRecord> submitted = MakeRecords(
      ingest_building, options.seed, Stream::kIngest, submit_count);

  // --- setup: launch, first answered Ping -----------------------------------
  std::vector<double> setup_samples;
  std::unique_ptr<Daemon> daemon;
  std::string live_dir;
  for (int launch = 0; launch < kSetupLaunches; ++launch) {
    if (daemon != nullptr) daemon->Stop();
    live_dir = options.work_dir + "/daemon-" + std::to_string(launch);
    daemon = std::make_unique<Daemon>(FleetDaemon(options, fleet, live_dir));
    setup_samples.push_back(ToSeconds(daemon->ready() - daemon->launched()));
    if (spans != nullptr) {
      spans->Add("daemon.setup", daemon->launched(), daemon->ready());
    }
  }
  outcome.simd_backend = daemon->SimdBackend();
  const std::uint16_t port = daemon->port();
  const std::uint64_t g0 =
      grafics::serve::Client("127.0.0.1", port).Ping(ingest_model)
          .model_generation;

  // --- measured phase, with the ingest stream (live) or after it ------------
  PacedPredicts paced_run;
  BulkPredicts bulk_run;
  SubmitStream submit_run;
  std::vector<PingSample> pings;
  const auto run_ingest = [&](const std::function<void(Clock::time_point)>&
                                  alongside) {
    std::atomic<bool> stop_poll{false};
    std::atomic<std::uint64_t> latest{g0};
    Background poller([&] {
      pings = PollGenerations(port, ingest_model, stop_poll, latest);
    });
    {
      RaiseOnExit stop_on_error{stop_poll};
      const Clock::time_point start = Clock::now() + kLeadIn;
      alongside(start);
      submit_run = RunSubmits(port, ingest_model, submitted, submit_schedule,
                              start);
      const Clock::time_point give_up = Clock::now() + kDrainTimeout;
      while (latest.load() < g0 + folds && Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    poller.Join();
  };

  std::unique_ptr<Background> predictor;
  if (live) {
    run_ingest([&](Clock::time_point start) {
      predictor = std::make_unique<Background>([&, start] {
        paced_run = RunPacedPredicts(port, ingest_model, queries,
                                     predict_schedule, start,
                                     workload.connections);
      });
    });
    predictor->Join();
  } else {
    if (paced) {
      paced_run = RunPacedPredicts(port, ingest_model, queries,
                                   predict_schedule, Clock::now() + kLeadIn,
                                   workload.connections);
    } else {
      bulk_run = RunBulkPredicts(
          port, fleet.names, pools,
          std::min(workload.connections, Cores()), options.seconds,
          min_predicts);
    }
    run_ingest([](Clock::time_point) {});
  }
  const double peak_rss_mb = daemon->PeakRssMb();

  // --- reference fold chain at the daemon's boundaries ----------------------
  std::vector<core::Grafics> chain;
  chain.push_back(fleet.models.front().Clone());
  for (std::size_t k = 0; k < folds; ++k) {
    core::Grafics next = chain.back().Clone();
    if (!(options.inject == "skip-fold" && k == folds / 2)) {
      next.Update(std::vector<SignalRecord>(
          submitted.begin() + static_cast<std::ptrdiff_t>(k * kFoldRecords),
          submitted.begin() +
              static_cast<std::ptrdiff_t>((k + 1) * kFoldRecords)));
    }
    chain.push_back(std::move(next));
  }

  // --- gate: every measured answer equals the in-process reference ----------
  std::vector<Answers> served_by_model(model_count);
  std::vector<std::vector<FloorId>> truth_by_model(model_count);
  if (paced) {
    Answers served = paced_run.answers;
    for (std::size_t i = 0; i < served.size(); ++i) {
      if (paced_run.requests[i].failed) served[i].reset();
    }
    if (options.inject == "corrupt-answer") {
      for (std::size_t i = 0; i < served.size(); ++i) {
        if (!paced_run.requests[i].failed) {
          Flip(paced_run.answers[i]);
          break;
        }
      }
    }
    std::size_t bad = 0;
    if (!live) {
      const Answers expected = Reference(fleet.models.front(), queries);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (!paced_run.requests[i].failed &&
            paced_run.answers[i] != expected[i]) {
          ++bad;
        }
      }
    } else {
      // The model changes under the reads: accept the answer of any
      // generation that can have served the request, bracketed by the
      // newest Ping answered before the send and the oldest sent after
      // the reply.
      std::vector<std::optional<core::InferenceContext>> contexts(chain.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const RequestOutcome& request = paced_run.requests[i];
        if (request.failed) continue;
        const auto before = std::upper_bound(
            pings.begin(), pings.end(), request.sent,
            [](Clock::time_point t, const PingSample& ping) {
              return t < ping.received;
            });
        const auto after = std::lower_bound(
            pings.begin(), pings.end(), request.done,
            [](const PingSample& ping, Clock::time_point t) {
              return ping.sent < t;
            });
        const std::size_t lo =
            before == pings.begin() ? 0 : std::prev(before)->generation - g0;
        const std::size_t hi =
            after == pings.end() ? folds : after->generation - g0;
        bool matched = false;
        for (std::size_t k = lo; k <= std::min(hi, folds) && !matched; ++k) {
          if (!contexts[k].has_value()) contexts[k].emplace(chain[k]);
          matched = contexts[k]->Predict(queries[i]) == paced_run.answers[i];
        }
        if (!matched) ++bad;
      }
    }
    if (bad > 0) {
      gates.push_back(std::to_string(bad) +
                      " served predict(s) differ from the reference");
    }
    served_by_model[0] = std::move(served);
    truth_by_model[0] = query_truth;
  } else {
    if (options.inject == "corrupt-answer") {
      for (std::size_t i = 0; i < bulk_run.used[0]; ++i) {
        if (bulk_run.answered[0][i] != 0) {
          Flip(bulk_run.answers[0][i]);
          break;
        }
      }
    }
    std::size_t bad = 0;
    for (std::size_t m = 0; m < model_count; ++m) {
      const std::size_t used = bulk_run.used[m];
      const std::vector<SignalRecord> sent(
          pools[m].begin(),
          pools[m].begin() + static_cast<std::ptrdiff_t>(used));
      const Answers expected = Reference(fleet.models[m], sent);
      Answers served(used);
      for (std::size_t i = 0; i < used; ++i) {
        if (bulk_run.answered[m][i] == 0) continue;
        served[i] = bulk_run.answers[m][i];
        if (served[i] != expected[i]) ++bad;
      }
      served_by_model[m] = std::move(served);
      truth_by_model[m].assign(pool_truth[m].begin(),
                               pool_truth[m].begin() +
                                   static_cast<std::ptrdiff_t>(used));
    }
    if (bad > 0) {
      gates.push_back(std::to_string(bad) +
                      " served predict(s) differ from the reference");
    }
  }

  // --- gate: after drain, and after each restart, answers equal the chain ---
  std::vector<std::vector<SignalRecord>> probes(model_count);
  std::vector<Answers> expected_probes(model_count);
  for (std::size_t m = 0; m < model_count; ++m) {
    probes[m] = MakeRecords(fleet.buildings[m], options.seed, Stream::kProbe,
                            kProbeRecords);
    expected_probes[m] = Reference(m == 0 ? chain.back() : fleet.models[m],
                                   probes[m]);
  }
  const auto check_probes = [&](const std::string& when) {
    for (std::size_t m = 0; m < model_count; ++m) {
      std::size_t bad = probes[m].size();
      try {
        bad = Mismatches(ServedAnswers(daemon->port(), fleet.names[m],
                                       probes[m]),
                         expected_probes[m]);
      } catch (const std::exception& e) {
        gates.push_back(when + ": " + fleet.names[m] + ": " + e.what());
        continue;
      }
      if (bad > 0) {
        gates.push_back(when + ": " + std::to_string(bad) + " of " +
                        std::to_string(probes[m].size()) + " " +
                        fleet.names[m] +
                        " probe(s) differ from the Clone()+Update reference");
      }
    }
  };
  if (pings.empty() || pings.back().generation != g0 + folds) {
    gates.push_back("ingest did not drain: expected generation " +
                    std::to_string(g0 + folds));
  }
  check_probes("after drain");

  std::vector<double> restart_samples;
  const DaemonConfig live_config = FleetDaemon(options, fleet, live_dir);
  for (int restart = 0; restart < kRestarts; ++restart) {
    const Clock::time_point term = Clock::now();
    daemon->Stop();
    daemon.reset();
    daemon = std::make_unique<Daemon>(live_config);
    restart_samples.push_back(ToSeconds(daemon->ready() - term));
    if (spans != nullptr) spans->Add("daemon.restart", term, daemon->ready());
    if (restart == 0 || restart + 1 == kRestarts) {
      check_probes("after restart " + std::to_string(restart + 1));
    }
  }
  daemon->Stop();

  // --- metrics ---------------------------------------------------------------
  const std::vector<RequestOutcome>& predicts =
      paced ? paced_run.requests : bulk_run.frames;
  const std::vector<double> predict_ms = Latencies(predicts);
  const std::vector<double> submit_ms = Latencies(submit_run.requests);
  std::vector<double> publish_ms;
  {
    std::size_t p = 0;
    for (std::size_t k = 1; k <= submit_run.chunk_acked.size(); ++k) {
      while (p < pings.size() && pings[p].generation < g0 + k) ++p;
      publish_ms.push_back(
          p < pings.size()
              ? std::max(0.0, ToMs(pings[p].received -
                                   submit_run.chunk_acked[k - 1]))
              : std::numeric_limits<double>::infinity());
    }
  }
  const auto require_samples = [&](const char* what, std::size_t n, double q) {
    if (!WindowedSupported(n, kWindows, q)) {
      gates.push_back(std::string(what) + ": " + std::to_string(n) +
                      " samples cannot support p" +
                      std::to_string(static_cast<int>(q * 100)) + " in " +
                      std::to_string(kWindows) + " windows");
    }
  };
  if (!WindowedSupported(predict_ms.size(), kPredictWindows, 0.90)) {
    gates.push_back("predict: too few samples for p90 in every window");
  }
  require_samples("submit", submit_ms.size(), 0.90);
  require_samples("publish", publish_ms.size(), 0.90);
  if (!gates.empty()) return outcome;

  double micro = 0.0;
  double macro = 0.0;
  std::size_t scored = 0;
  for (std::size_t m = 0; m < model_count; ++m) {
    if (truth_by_model[m].empty()) continue;
    const core::ClassificationMetrics scores =
        core::ComputeMetrics(truth_by_model[m], served_by_model[m]);
    micro += scores.micro.f_score;
    macro += scores.macro.f_score;
    ++scored;
  }
  outcome.attempted = predicts.size() + submit_run.requests.size();
  outcome.failed = Failures(predicts) + Failures(submit_run.requests);

  const auto windowed = [](const std::vector<double>& samples, double q) {
    return WindowedPercentile(samples, kWindows, q);
  };
  metrics.Set("predict_p50_ms",
              WindowedPercentile(predict_ms, kPredictWindows, 0.50), "ms");
  metrics.Set("predict_p90_ms",
              WindowedPercentile(predict_ms, kPredictWindows, 0.90), "ms");
  metrics.Set("predict_rps",
              WindowedRate(predicts, paced ? 1 : kBulkFrameRecords), "1/s");
  metrics.Set("ok_ratio",
              1.0 - static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted),
              "ratio");
  metrics.Set("micro_f1", micro / static_cast<double>(scored), "ratio");
  metrics.Set("macro_f1", macro / static_cast<double>(scored), "ratio");
  metrics.Set("submit_p50_ms", windowed(submit_ms, 0.50), "ms");
  metrics.Set("publish_p90_ms", windowed(publish_ms, 0.90), "ms");
  metrics.Set("restart_s", Median(restart_samples), "s");
  metrics.Set("setup_s", Median(setup_samples), "s");
  metrics.Set("peak_rss_mb", peak_rss_mb, "MiB");

  // The sample counts, and the percentiles too noisy on a shared host to
  // gate.
  const auto describe = [&](const std::string& what,
                            const std::vector<double>& samples) {
    outcome.details.Set(what + "_count", static_cast<double>(samples.size()),
                        "count");
    outcome.details.Set(what + "_p99_ms", Percentile(samples, 0.99), "ms");
  };
  describe("predict", predict_ms);
  describe("submit", submit_ms);
  describe("publish", publish_ms);
  outcome.details.Set("publish_p50_ms", windowed(publish_ms, 0.50), "ms");
  outcome.details.Set("train_s", train_s, "s");

  outcome.send_lag_ms = submit_run.lag_ms;
  if (paced) {
    outcome.send_lag_ms.insert(outcome.send_lag_ms.end(),
                               paced_run.lag_ms.begin(),
                               paced_run.lag_ms.end());
  }
  AddRequestSpans(spans, "serve.predict", predicts, 0);
  AddRequestSpans(spans, "serve.submit", submit_run.requests, predicts.size());
  if (spans != nullptr) {
    for (const PingSample& ping : pings) {
      spans->Add("serve.ping", ping.sent, ping.received);
    }
  }
  return outcome;
}

std::string HostRecord(const RunOptions& options, const std::string& commit,
                       const RunOutcome& outcome) {
  std::string cpu = "unknown";
  {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  std::string buildings = "[";
  for (std::size_t m = 0; m < outcome.fleet.buildings.size(); ++m) {
    const Building& building = outcome.fleet.buildings[m];
    JsonObject entry;
    entry.String("name", building.name);
    entry.Integer("floors", building.floors);
    entry.Integer("records", static_cast<long long>(building.train.size()));
    entry.Integer("macs", static_cast<long long>(building.macs));
    buildings += (m == 0 ? "" : ", ") + entry.Render();
  }
  JsonObject host;
  host.Integer("cores", static_cast<long long>(Cores()));
  host.String("cpu_model", cpu);
  host.String("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  host.String("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.String("compiler", std::string("gcc ") + __VERSION__);
#else
  host.String("compiler", "unknown");
#endif
  host.String("simd_backend", outcome.simd_backend);
  host.String("commit", commit);
  host.String("workload", options.workload);
  host.Integer("seed", static_cast<long long>(options.seed));
  host.Number("seconds", options.seconds);
  host.Raw("buildings", buildings + "]");
  return host.Render();
}

}  // namespace perfbench
