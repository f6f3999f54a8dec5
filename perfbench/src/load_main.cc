// The untraced run: one workload end to end against the real daemon.
// Prints the end-to-end metrics as the last stdout line and stores them,
// with the host record, in the --results file. A failed correctness gate
// prints no metrics and exits 1.
//
//   perfbench_load --workload NAME --seed N --seconds S --daemon BIN
//                  --work-dir DIR --results FILE [--commit SHA]
//                  [--inject corrupt-answer|skip-fold]
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"
#include "workload.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args(argc, argv);
    RunOptions options;
    options.workload = args.Require("--workload");
    options.seed = args.Unsigned("--seed", 1);
    options.seconds = std::stod(args.Get("--seconds", "10"));
    options.daemon_binary = args.Require("--daemon");
    options.work_dir = args.Require("--work-dir");
    options.inject = args.Get("--inject", "");
    const RunOutcome outcome = RunWorkload(options, nullptr);
    const bool correct = outcome.gate_failures.empty();

    std::vector<std::string> gates;
    for (const std::string& failure : outcome.gate_failures) {
      std::fprintf(stderr, "perfbench_load: gate failed: %s\n",
                   failure.c_str());
      gates.push_back(JsonQuote(failure));
    }
    JsonObject record;
    record.Raw("host",
               HostRecord(options, args.Get("--commit", "unknown"), outcome));
    record.Bool("correct", correct);
    record.Raw("gate_failures", JsonArray(gates));
    record.Integer("attempted", static_cast<long long>(outcome.attempted));
    record.Integer("failed", static_cast<long long>(outcome.failed));
    record.Raw("metrics", outcome.metrics.Render());
    record.Raw("details", outcome.details.Render());
    WriteFile(args.Require("--results"), record.Render() + "\n");
    if (!correct) return 1;

    JsonObject line;
    line.Bool("correct", true);
    line.Integer("attempted", static_cast<long long>(outcome.attempted));
    line.Integer("failed", static_cast<long long>(outcome.failed));
    line.Raw("metrics", outcome.metrics.Render());
    std::printf("%s\n", line.Render().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 2;
  }
}
