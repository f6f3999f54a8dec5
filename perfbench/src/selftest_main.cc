// Unit checks of the benchmark's own arithmetic: the percentile and
// sample-count rule, open-loop lag accounting, span self time, and the
// determinism of the generated inputs. Exits nonzero on the first failure.
//
//   perfbench_selftest
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "common.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void PercentileRule() {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  Check(Percentile(samples, 0.50) == 50.0, "p50 of 1..100 is 50");
  Check(Percentile(samples, 0.99) == 99.0, "p99 of 1..100 is 99");
  Check(Percentile(samples, 1.0) == 100.0, "p100 is the maximum");
  Check(Percentile({7.0}, 0.99) == 7.0, "one sample is every percentile");
  samples.push_back(std::numeric_limits<double>::infinity());
  Check(std::isinf(Percentile(samples, 1.0)),
        "a failed request (+inf) counts beyond every latency");
  Check(Percentile(samples, 0.5) == 51.0, "failures shift the median");
  Check(!PercentileSupported(999, 0.99), "p99 of 999 samples: 9 beyond");
  Check(PercentileSupported(1000, 0.99), "p99 of 1000 samples: 10 beyond");
  Check(!PercentileSupported(99, 0.90), "p90 of 99 samples: 9 beyond");
  Check(PercentileSupported(100, 0.90), "p90 of 100 samples: 10 beyond");
  Check(PercentileSupported(20, 0.50), "p50 of 20 samples: 10 beyond");
  Check(!PercentileSupported(19, 0.50), "p50 of 19 samples: 9 beyond");

  // Three windows of 1010 samples; a burst makes the second window slow.
  std::vector<double> timeline;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1010; ++i) timeline.push_back(w == 1 ? 50.0 : i % 10);
  }
  Check(WindowedPercentile(timeline, 3, 0.99) == 9.0,
        "a burst in one of three windows does not move the windowed p99");
  Check(WindowedSupported(3000, 3, 0.99), "3000 samples: p99 in 3 windows");
  Check(!WindowedSupported(2999, 3, 0.99), "2999 samples: 999 per window");
  Check(WindowedPercentile({1, 2, 3, 4, 5, 6, 7}, 3, 1.0) == 4.0,
        "the remainder joins the last window");
}

void OpenLoopLag() {
  // 40 events 2 ms apart; event 10's send stalls for 30 ms.
  const std::vector<Clock::duration> schedule =
      EvenSchedule(40, 0.080);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const std::vector<double> lag = RunOpenLoop(
      schedule, start, [](std::size_t i, Clock::time_point) {
        if (i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(30));
      });
  Check(lag.size() == 40, "one lag sample per event");
  Check(lag[10] < 5.0, "the stalled event itself started on time");
  Check(lag[11] >= 25.0, "the event after a stall shows the stall as lag");
  Check(Percentile(lag, 0.99) >= 25.0, "p99 lag exposes the stalled generator");
  const std::vector<double> calm = RunOpenLoop(
      EvenSchedule(20, 0.020), Clock::now(),
      [](std::size_t, Clock::time_point) {});
  Check(Percentile(calm, 0.5) < 5.0, "an idle generator runs on time");
}

void SpanSelfTime() {
  const Clock::time_point t0 = Clock::now();
  const auto at = [t0](int us) { return t0 + std::chrono::microseconds(us); };
  std::vector<Span> spans = {
      {"parent", at(0), at(100), -1, 1},
      {"a", at(10), at(40), 0, 1},
      {"b", at(30), at(60), 0, 1},    // overlaps a: union 10..60
      {"c", at(90), at(130), 0, 1},   // runs past the parent: clipped to 10
      {"grandchild", at(12), at(20), 1, 1},  // not the parent's child
  };
  const std::vector<double> self = SelfTimesUs(spans);
  Check(std::abs(self[0] - 40.0) < 1e-6,
        "self time = 100 - union(10..60, 90..100) = 40 us");
  Check(std::abs(self[1] - 22.0) < 1e-6,
        "a's self time excludes its own child only");
  Check(std::abs(self[4] - 8.0) < 1e-6, "a leaf's self time");

  SpanLog log;
  const int root = log.Add("root", at(0), at(100));
  log.Add("stage", at(0), at(50), root);
  log.Add("stage", at(50), at(97), root);
  Check(std::abs(log.ChildCoverage("root") - 0.97) < 1e-9,
        "children covering 97 of 100 us give coverage 0.97");
}

void Schedules() {
  const auto a = PoissonSchedule(1000.0, 2.0, 7);
  const auto b = PoissonSchedule(1000.0, 2.0, 7);
  const auto c = PoissonSchedule(1000.0, 2.0, 8);
  Check(a == b, "the same seed gives the same arrivals");
  Check(a != c, "another seed gives other arrivals");
  Check(a.size() > 1800 && a.size() < 2200, "Poisson count near rate x time");
  Check(std::is_sorted(a.begin(), a.end()), "arrivals are ordered");
}

}  // namespace

int main() {
  PercentileRule();
  OpenLoopLag();
  SpanSelfTime();
  Schedules();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
