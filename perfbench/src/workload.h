// One run of a workload against the real daemon: train, launch, drive,
// ingest, restart, check every answer, and compute the end-to-end metrics.
// Uses only the public model surface (core::Grafics) and serve::Client.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/grafics.h"
#include "daemon.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string daemon_binary;
  /// Scratch directory for artifacts, journals and stores.
  std::string work_dir;
  /// Self-test fault injection: "corrupt-answer" flips one served answer
  /// before the gates, "skip-fold" leaves one fold out of the reference.
  std::string inject;
};

/// A workload's trained buildings as the daemon serves them.
struct Fleet {
  std::vector<Building> buildings;
  std::vector<std::string> names;      // model names on the daemon
  std::vector<std::string> artifacts;  // SaveModel files
  /// The artifacts loaded back in process: the reference the daemon's
  /// answers must equal.
  std::vector<grafics::core::Grafics> models;
};

struct RunOutcome {
  /// Every end-to-end metric (see README.md).
  MetricSet metrics;
  /// Sample counts, whole-run p99s, the publish p50 and the training time,
  /// stored in the results file only.
  MetricSet details;
  /// Predict and submit frames sent, and how many failed or were refused.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Empty when every correctness gate held.
  std::vector<std::string> gate_failures;
  /// How late the open-loop generators ran, per send (ms).
  std::vector<double> send_lag_ms;
  std::string simd_backend;
  Fleet fleet;
};

/// Runs `options.workload`. With a non-null `spans`, records the run's
/// calls (training, launches, every request) as spans.
RunOutcome RunWorkload(const RunOptions& options, SpanLog* spans);

/// The daemon configuration of a workload's fleet in `dir`.
DaemonConfig FleetDaemon(const RunOptions& options, const Fleet& fleet,
                         const std::string& dir);

/// Host record stored with every result: cores, CPU model, build type,
/// compiler, SIMD backend, commit, seed and each building's sizes.
std::string HostRecord(const RunOptions& options, const std::string& commit,
                       const RunOutcome& outcome);

}  // namespace perfbench
