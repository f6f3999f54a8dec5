// The traced run: the workload exactly as perfbench_load runs it, with
// every request recorded as a span, followed by the per-layer measurements
// (replica.cc for the in-process layers, MeasureServe below for the serving
// stack). Prints the per-layer metrics as the last stdout line; stores them
// with the traced run's end-to-end metrics (for the tracing overhead) in
// the --results file and every span in the --spans file.
//
//   perfbench_trace --workload NAME --seed N --seconds S --daemon BIN
//                   --work-dir DIR --results FILE --spans FILE
//                   [--commit SHA]
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <variant>

#include "common.h"
#include "core/grafics.h"
#include "core/inference_context.h"
#include "daemon.h"
#include "replica.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "traffic.h"
#include "workload.h"

namespace {

using namespace perfbench;
namespace core = grafics::core;
namespace serve = grafics::serve;
using grafics::rf::SignalRecord;

/// Frames of the closed-loop burst that measures stack efficiency.
constexpr std::size_t kStackFrames = 256;

/// The serving stack against an otherwise idle daemon: transport floor,
/// per-request overhead over the in-process predict of the same record,
/// frame decode, and daemon over in-process throughput at the same thread
/// count.
void MeasureServe(const RunOptions& options, const Fleet& fleet,
                  SpanLog& spans, MetricSet& metrics,
                  std::vector<std::string>& gate_failures) {
  const std::string& name = fleet.names.front();
  Daemon daemon(FleetDaemon(options, fleet, options.work_dir + "/trace-serve"));
  serve::Client client("127.0.0.1", daemon.port());

  std::vector<double> ping_us;
  for (std::size_t i = 0; i < kMinP99Samples; ++i) {
    const Clock::time_point start = Clock::now();
    client.Ping(name);
    spans.Add("serve.ping_probe", start, Clock::now(), -1, i);
    ping_us.push_back(ToUs(Clock::now() - start));
  }
  metrics.Set("serve.ping_rtt_p50_us", Percentile(ping_us, 0.5), "us");

  const std::vector<SignalRecord> records =
      MakeRecords(fleet.buildings.front(), options.seed, Stream::kTrace,
                  kMinP99Samples);
  core::InferenceContext context = fleet.models.front().MakeContext();
  std::vector<double> overhead_us;
  std::vector<double> decode_us;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Clock::time_point sent = Clock::now();
    const auto served = client.Predict(records[i], name);
    const Clock::time_point received = Clock::now();
    const int root = spans.Add("serve.predict_probe", sent, received, -1, i);
    const Clock::time_point start = Clock::now();
    const auto local = context.Predict(records[i]);
    const Clock::time_point end = Clock::now();
    spans.Add("core.predict_pair", start, end, root, i);
    overhead_us.push_back(ToUs(received - sent) - ToUs(end - start));
    if (served != local) ++mismatches;

    const std::string payload =
        serve::EncodePayload(serve::PredictRequest{name, {records[i]}});
    const Clock::time_point decode_start = Clock::now();
    const serve::Message decoded = serve::DecodePayload(payload);
    decode_us.push_back(ToUs(Clock::now() - decode_start));
    if (!std::holds_alternative<serve::PredictRequest>(decoded)) ++mismatches;
  }
  metrics.Set("serve.overhead_p50_us", Percentile(overhead_us, 0.50), "us");
  metrics.Set("serve.overhead_p99_us", Percentile(overhead_us, 0.99), "us");
  metrics.Set("serve.decode_p50_us", Percentile(decode_us, 0.50), "us");

  // The same records through Grafics::PredictBatch and through the daemon.
  const std::size_t model_count = fleet.models.size();
  std::vector<std::vector<SignalRecord>> pools(model_count);
  double inproc_s = 0.0;
  std::size_t total = 0;
  core::BatchPredictOptions batch;
  batch.num_threads = DaemonThreads(FindWorkload(options.workload));
  std::vector<std::vector<std::optional<grafics::rf::FloorId>>> expected;
  for (std::size_t m = 0; m < model_count; ++m) {
    pools[m] = MakeRecords(fleet.buildings[m], options.seed, Stream::kStack,
                           kStackFrames / model_count * kBulkFrameRecords);
    const Clock::time_point start = Clock::now();
    expected.push_back(fleet.models[m].PredictBatch(pools[m], batch));
    const Clock::time_point end = Clock::now();
    spans.Add("core.predict_batch", start, end, -1, m);
    inproc_s += ToSeconds(end - start);
    total += pools[m].size();
  }
  const double inproc_rps = static_cast<double>(total) / inproc_s;
  metrics.Set("core.predict_batch_rps", inproc_rps, "1/s");
  const BulkPredicts burst = RunBulkPredicts(
      daemon.port(), fleet.names, pools, std::min<std::size_t>(4, Cores()), 0.0,
      kStackFrames);
  std::size_t answered = 0;
  for (std::size_t m = 0; m < model_count; ++m) {
    for (std::size_t i = 0; i < burst.used[m]; ++i) {
      if (burst.answered[m][i] == 0) continue;
      ++answered;
      if (burst.answers[m][i] != expected[m][i]) ++mismatches;
    }
  }
  for (std::size_t f = 0; f < burst.frames.size(); ++f) {
    spans.Add("serve.predict_burst", burst.frames[f].sent,
              burst.frames[f].done, -1, f);
  }
  const double daemon_rps = static_cast<double>(answered) /
                            ToSeconds(burst.end - burst.start);
  metrics.Set("serve.stack_efficiency", daemon_rps / inproc_rps, "ratio");
  if (mismatches > 0) {
    gate_failures.push_back(std::to_string(mismatches) +
                            " serve probe(s) differ from the in-process "
                            "reference");
  }
  daemon.Stop();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    RunOptions options;
    options.workload = args.Require("--workload");
    options.seed = args.Unsigned("--seed", 1);
    options.seconds = std::stod(args.Get("--seconds", "10"));
    options.daemon_binary = args.Require("--daemon");
    options.work_dir = args.Require("--work-dir");

    SpanLog spans;
    const RunOutcome outcome = RunWorkload(options, &spans);
    std::vector<std::string> failures = outcome.gate_failures;
    MetricSet layers;
    if (failures.empty()) {
      MeasureLayers(options, outcome.fleet, spans, layers, failures);
      MeasureServe(options, outcome.fleet, spans, layers, failures);
      layers.Set("bench.send_lag_p99_ms",
                 Percentile(outcome.send_lag_ms, 0.99), "ms");
    }
    spans.WriteJson(args.Require("--spans"));

    std::vector<std::string> gates;
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "perfbench_trace: gate failed: %s\n",
                   failure.c_str());
      gates.push_back(JsonQuote(failure));
    }
    JsonObject record;
    record.Raw("host",
               HostRecord(options, args.Get("--commit", "unknown"), outcome));
    record.Bool("correct", failures.empty());
    record.Raw("gate_failures", JsonArray(gates));
    record.Integer("attempted", static_cast<long long>(outcome.attempted));
    record.Integer("failed", static_cast<long long>(outcome.failed));
    record.Raw("traced_end_to_end", outcome.metrics.Render());
    record.Raw("metrics", layers.Render());
    WriteFile(args.Require("--results"), record.Render() + "\n");
    if (!failures.empty()) return 1;

    JsonObject line;
    line.Bool("correct", true);
    line.Integer("attempted", static_cast<long long>(outcome.attempted));
    line.Integer("failed", static_cast<long long>(outcome.failed));
    line.Raw("metrics", layers.Render());
    std::printf("%s\n", line.Render().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 2;
  }
}
