// The load generator's traffic shapes. Everything here talks to the daemon
// through serve::Client (Predict/PredictBatch/Ping/Submit) or the frame
// codec only.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// One request as the generator saw it. `latency_ms` is +inf when the
/// request failed, was refused or timed out.
struct RequestOutcome {
  Clock::time_point due;   // scheduled send (closed loop: actual send)
  Clock::time_point sent;
  Clock::time_point done;
  double latency_ms = 0.0;
  bool failed = false;
};

/// Open-loop single-record predicts, pipelined round-robin over
/// `connections` sockets by one sender thread; one receiver thread reads
/// the in-order replies of every socket.
struct PacedPredicts {
  std::vector<RequestOutcome> requests;
  /// Per request: the answer (nullopt = discarded by the daemon).
  std::vector<std::optional<grafics::rf::FloorId>> answers;
  /// How late the sender ran, per request (ms).
  std::vector<double> lag_ms;
};

PacedPredicts RunPacedPredicts(
    std::uint16_t port, const std::string& model,
    const std::vector<grafics::rf::SignalRecord>& records,
    const std::vector<Clock::duration>& schedule, Clock::time_point start,
    std::size_t connections);

/// Closed-loop 64-record PredictBatch frames: `connections` client threads,
/// each cycling over the models from its own offset and taking fresh
/// records from that model's pool. Runs until `seconds` have passed and at
/// least `min_frames` frames were answered, or a pool runs dry.
struct BulkPredicts {
  std::vector<RequestOutcome> frames;  // in send order
  /// answers[m][i]: answer to pool record i of model m, valid where
  /// answered[m][i]; the first used[m] records were sent.
  std::vector<std::vector<std::optional<grafics::rf::FloorId>>> answers;
  std::vector<std::vector<char>> answered;
  std::vector<std::size_t> used;
  Clock::time_point start;
  Clock::time_point end;
};

BulkPredicts RunBulkPredicts(
    std::uint16_t port, const std::vector<std::string>& models,
    const std::vector<std::vector<grafics::rf::SignalRecord>>& pools,
    std::size_t connections, double seconds, std::size_t min_frames);

/// Open-loop one-record Submit frames on one blocking connection, so the
/// daemon journals them in submission order. Every kFoldRecords-th
/// acknowledged record completes a fold chunk.
struct SubmitStream {
  std::vector<RequestOutcome> requests;
  std::vector<double> lag_ms;
  /// Acknowledgement time of the record that completed chunk k.
  std::vector<Clock::time_point> chunk_acked;
};

SubmitStream RunSubmits(std::uint16_t port, const std::string& model,
                        const std::vector<grafics::rf::SignalRecord>& records,
                        const std::vector<Clock::duration>& schedule,
                        Clock::time_point start);

/// Pings one model in a loop until `stop`, recording which generation each
/// answer reported; `latest` follows the newest one.
struct PingSample {
  Clock::time_point sent;
  Clock::time_point received;
  std::uint64_t generation = 0;
};

std::vector<PingSample> PollGenerations(std::uint16_t port,
                                        const std::string& model,
                                        const std::atomic<bool>& stop,
                                        std::atomic<std::uint64_t>& latest);

/// Per-record answers of the daemon for `records` (64-record frames).
std::vector<std::optional<grafics::rf::FloorId>> ServedAnswers(
    std::uint16_t port, const std::string& model,
    const std::vector<grafics::rf::SignalRecord>& records);

}  // namespace perfbench
