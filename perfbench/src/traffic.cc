#include "traffic.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <variant>

#include "daemon.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace perfbench {

namespace {

namespace serve = grafics::serve;
using grafics::rf::FloorId;
using grafics::rf::SignalRecord;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// How long the receiver waits for replies after the last scheduled send.
constexpr auto kReplyGrace = std::chrono::seconds(10);

bool WriteAll(int fd, const std::string& bytes) {
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + offset, bytes.size() - offset,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

void Finish(RequestOutcome& request, Clock::time_point done, bool ok) {
  request.done = done;
  request.failed = !ok;
  request.latency_ms = ok ? ToMs(done - request.due) : kInf;
}

}  // namespace

PacedPredicts RunPacedPredicts(const std::uint16_t port,
                               const std::string& model,
                               const std::vector<SignalRecord>& records,
                               const std::vector<Clock::duration>& schedule,
                               const Clock::time_point start,
                               const std::size_t connections) {
  const std::size_t n = schedule.size();
  if (records.size() < n) throw std::runtime_error("fewer records than sends");
  std::vector<std::string> frames(n);
  for (std::size_t i = 0; i < n; ++i) {
    frames[i] = serve::EncodeFrame(serve::PredictRequest{model, {records[i]}});
  }
  PacedPredicts out;
  out.requests.resize(n);
  out.answers.resize(n);

  struct Lane {
    int fd = -1;
    std::mutex mutex;
    std::deque<std::size_t> waiting;  // sent, unanswered, in send order
  };
  std::vector<Lane> lanes(connections);
  for (Lane& lane : lanes) lane.fd = ConnectLocal(port);
  const Clock::time_point give_up =
      start + (n == 0 ? Clock::duration{} : schedule.back()) + kReplyGrace;

  std::thread receiver([&] {
    std::vector<pollfd> polls;
    for (const Lane& lane : lanes) polls.push_back({lane.fd, POLLIN, 0});
    std::size_t resolved = 0;
    while (resolved < n && Clock::now() < give_up) {
      if (::poll(polls.data(), polls.size(), 20) <= 0) continue;
      for (std::size_t c = 0; c < lanes.size(); ++c) {
        if (polls[c].fd < 0 || polls[c].revents == 0) continue;
        std::optional<std::string> payload;
        try {
          payload = serve::ReceiveFramePayload(lanes[c].fd);
        } catch (const std::exception&) {
          payload.reset();
        }
        const Clock::time_point now = Clock::now();
        if (!payload.has_value()) {
          polls[c].fd = -1;  // closed: its waiting requests fail below
          continue;
        }
        std::size_t i = 0;
        {
          const std::lock_guard<std::mutex> lock(lanes[c].mutex);
          if (lanes[c].waiting.empty()) continue;  // cannot happen in order
          i = lanes[c].waiting.front();
          lanes[c].waiting.pop_front();
        }
        bool ok = false;
        try {
          const serve::Message reply = serve::DecodePayload(*payload);
          const auto* response = std::get_if<serve::PredictResponse>(&reply);
          if (response != nullptr && response->results.size() == 1) {
            const serve::PredictResult& result = response->results.front();
            ok = result.status != serve::PredictStatus::kError;
            if (result.status == serve::PredictStatus::kOk) {
              out.answers[i] = result.floor;
            }
          }
        } catch (const std::exception&) {
          ok = false;
        }
        Finish(out.requests[i], now, ok);
        ++resolved;
      }
    }
  });

  out.lag_ms = RunOpenLoop(
      schedule, start, [&](std::size_t i, Clock::time_point due) {
        Lane& lane = lanes[i % lanes.size()];
        {
          const std::lock_guard<std::mutex> lock(lane.mutex);
          out.requests[i].due = due;
          lane.waiting.push_back(i);
        }
        out.requests[i].sent = Clock::now();
        WriteAll(lane.fd, frames[i]);  // a dead socket fails below
      });
  receiver.join();
  // Whatever is still waiting timed out or lost its connection.
  for (Lane& lane : lanes) {
    for (const std::size_t i : lane.waiting) {
      Finish(out.requests[i], Clock::now(), false);
    }
    ::close(lane.fd);
  }
  return out;
}

BulkPredicts RunBulkPredicts(
    const std::uint16_t port, const std::vector<std::string>& models,
    const std::vector<std::vector<SignalRecord>>& pools,
    const std::size_t connections, const double seconds,
    const std::size_t min_frames) {
  const std::size_t m_count = models.size();
  BulkPredicts out;
  out.answers.resize(m_count);
  out.answered.resize(m_count);
  for (std::size_t m = 0; m < m_count; ++m) {
    out.answers[m].resize(pools[m].size());
    out.answered[m].assign(pools[m].size(), 0);
  }
  std::vector<std::atomic<std::size_t>> cursors(m_count);
  std::atomic<std::size_t> frames_done{0};
  std::mutex merge;
  out.start = Clock::now();
  const Clock::time_point deadline =
      out.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      std::vector<RequestOutcome> local;
      std::optional<serve::Client> client;
      for (std::size_t step = 0;; ++step) {
        if (Clock::now() >= deadline && frames_done.load() >= min_frames) {
          break;
        }
        const std::size_t m = (t + step) % m_count;
        const std::size_t begin = cursors[m].fetch_add(kBulkFrameRecords);
        if (begin + kBulkFrameRecords > pools[m].size()) break;  // pool dry
        const std::vector<SignalRecord> frame(
            pools[m].begin() + static_cast<std::ptrdiff_t>(begin),
            pools[m].begin() +
                static_cast<std::ptrdiff_t>(begin + kBulkFrameRecords));
        RequestOutcome request;
        request.due = request.sent = Clock::now();
        bool ok = false;
        try {
          if (!client.has_value()) client.emplace("127.0.0.1", port);
          const std::vector<std::optional<FloorId>> answers =
              client->PredictBatch(frame, models[m], kBulkFrameRecords);
          ok = answers.size() == frame.size();
          for (std::size_t k = 0; ok && k < answers.size(); ++k) {
            out.answers[m][begin + k] = answers[k];
            out.answered[m][begin + k] = 1;
          }
        } catch (const std::exception&) {
          client.reset();  // reconnect for the next frame
        }
        Finish(request, Clock::now(), ok);
        local.push_back(request);
        frames_done.fetch_add(1);
      }
      const std::lock_guard<std::mutex> lock(merge);
      out.frames.insert(out.frames.end(), local.begin(), local.end());
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::sort(out.frames.begin(), out.frames.end(),
            [](const RequestOutcome& a, const RequestOutcome& b) {
              return a.sent < b.sent;
            });
  out.end = out.start;
  for (const RequestOutcome& frame : out.frames) {
    out.end = std::max(out.end, frame.done);
  }
  for (std::size_t m = 0; m < m_count; ++m) {
    out.used.push_back(std::min(cursors[m].load(), pools[m].size()));
  }
  return out;
}

SubmitStream RunSubmits(const std::uint16_t port, const std::string& model,
                        const std::vector<SignalRecord>& records,
                        const std::vector<Clock::duration>& schedule,
                        const Clock::time_point start) {
  SubmitStream out;
  out.requests.resize(schedule.size());
  std::optional<serve::Client> client;
  out.lag_ms = RunOpenLoop(
      schedule, start, [&](std::size_t i, Clock::time_point due) {
        RequestOutcome& request = out.requests[i];
        request.due = due;
        request.sent = Clock::now();
        bool ok = false;
        try {
          if (!client.has_value()) client.emplace("127.0.0.1", port);
          const std::vector<serve::SubmitResult> results =
              client->Submit({records[i]}, model, 1);
          ok = results.size() == 1 &&
               results[0].status == serve::SubmitStatus::kAccepted;
        } catch (const std::exception&) {
          client.reset();
        }
        Finish(request, Clock::now(), ok);
        if ((i + 1) % kFoldRecords == 0) out.chunk_acked.push_back(request.done);
      });
  return out;
}

std::vector<PingSample> PollGenerations(const std::uint16_t port,
                                        const std::string& model,
                                        const std::atomic<bool>& stop,
                                        std::atomic<std::uint64_t>& latest) {
  std::vector<PingSample> samples;
  serve::Client client("127.0.0.1", port);
  while (!stop.load()) {
    PingSample sample;
    sample.sent = Clock::now();
    const serve::Pong pong = client.Ping(model);
    sample.received = Clock::now();
    sample.generation = pong.model_generation;
    samples.push_back(sample);
    latest.store(sample.generation);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return samples;
}

std::vector<std::optional<FloorId>> ServedAnswers(
    const std::uint16_t port, const std::string& model,
    const std::vector<SignalRecord>& records) {
  serve::Client client("127.0.0.1", port);
  return client.PredictBatch(records, model, kBulkFrameRecords);
}

}  // namespace perfbench
