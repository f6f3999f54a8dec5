// Online-refinement step curve: how many SGD steps a new node needs after
// its warm start (Sec. V-A). For each (building, seed, step count) the driver
// trains a model with that step count on the building's whole crowd dataset
// with 4 labels per floor. It scores held-out fresh-position queries on the
// fresh model, folds fresh records into it in batches of 10 (as the daemon's
// `--ingest-batch 10` does), and scores the same queries again. Training does
// not read the step count, so every step count of a (building, seed) starts
// from the same trained embedding.
//
//   refine_curve [--dim 8] [--steps 50,100,200,300,600]
//                [--buildings ms-0,ms-1,ms-3,ms-7,campus,hk-office-tower-1]
//                [--pair-with ROWS_FILE]
//
// ms-N are buildings of MicrosoftLikeFleet(16, 2022, 150), the fleet the
// repository benchmark serves; campus is CampusBuildingConfig(9) and
// hk-office-tower-1 is HongKongFleet(2022, 150)[0]. Each building runs seeds
// 1..8. Seed s picks the labels, the trainer seed and the query and fold
// records, so every job is deterministic and the `row` lines of two builds
// pair up. --pair-with reads the `row` lines of another run at one step
// count (say, an older build at 600 steps) and prints this run's paired
// differences against them.
// EXPERIMENTS.md holds the tables and the commands.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/cli_flags.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/grafics.h"
#include "core/inference_context.h"
#include "synth/presets.h"

namespace {

using namespace grafics;

constexpr std::uint64_t kSeeds = 8;
constexpr std::size_t kQueries = 1000;
constexpr std::size_t kFolds = 3000;
constexpr std::size_t kFoldBatch = 10;
constexpr std::size_t kLabelsPerFloor = 4;

synth::BuildingConfig FindBuilding(const std::string& name) {
  if (name == "campus") return synth::CampusBuildingConfig(9);
  if (name == "hk-office-tower-1") return synth::HongKongFleet(2022, 150)[0];
  for (const synth::BuildingConfig& config :
       synth::MicrosoftLikeFleet(16, 2022, 150)) {
    if (config.spec.name == name) return config;
  }
  throw Error("refine_curve: unknown building '" + name + "'");
}

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');) items.push_back(item);
  return items;
}

/// `count` non-empty scans at uniform positions on uniform floors, labeled
/// with their floor. Positions come from Rng alone, so every toolchain draws
/// the same records; the simulator is a copy, so its caller's stream stays.
std::vector<rf::SignalRecord> FreshScans(synth::BuildingSimulator simulator,
                                         std::size_t count,
                                         std::uint64_t seed) {
  const synth::BuildingSpec& spec = simulator.spec();
  Rng rng(seed);
  std::vector<rf::SignalRecord> scans;
  scans.reserve(count);
  while (scans.size() < count) {
    const auto floor = static_cast<int>(
        rng.NextIndex(static_cast<std::uint64_t>(spec.num_floors)));
    const synth::Point position = {
        rng.Uniform(0.0, spec.floor_width_m),
        rng.Uniform(0.0, spec.floor_depth_m),
        static_cast<double>(floor) * spec.floor_height_m + 1.2};
    rf::SignalRecord scan = simulator.MeasureAt(position, floor);
    if (scan.empty()) continue;
    scan.set_floor(floor);
    scans.push_back(std::move(scan));
  }
  return scans;
}

/// Micro-F over `queries`. Each query gets one answer and a discard counts
/// as a wrong one, so micro-F equals the share answered correctly.
double MicroF(const core::Grafics& model,
              const std::vector<rf::SignalRecord>& queries) {
  core::InferenceContext context = model.MakeContext();
  std::size_t correct = 0;
  for (const rf::SignalRecord& query : queries) {
    if (context.Predict(query) == query.floor()) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(queries.size());
}

struct Cell {
  double fresh = 0.0;
  double folded = 0.0;
};

Cell RunJob(const synth::BuildingConfig& building, std::uint64_t seed,
            std::size_t dim, std::size_t steps) {
  synth::BuildingSimulator simulator = building.MakeSimulator();
  rf::Dataset dataset = simulator.GenerateDataset();
  Rng label_rng(seed ^ 0x1ABE1ULL);
  dataset.KeepLabelsPerFloor(kLabelsPerFloor, label_rng);
  core::GraficsConfig config;
  config.trainer.dim = dim;
  config.trainer.seed = seed;
  config.online_refine_iterations = steps;
  core::Grafics model(config);
  model.Train(dataset.records());

  const std::vector<rf::SignalRecord> scans =
      FreshScans(simulator, kQueries + kFolds, seed ^ 0xF2E5ULL);
  const std::vector<rf::SignalRecord> queries(scans.begin(),
                                              scans.begin() + kQueries);
  Cell cell;
  cell.fresh = MicroF(model, queries);
  for (std::size_t b = kQueries; b < scans.size(); b += kFoldBatch) {
    const auto first = scans.begin() + static_cast<std::ptrdiff_t>(b);
    model.Update(std::vector<rf::SignalRecord>(first, first + kFoldBatch));
  }
  cell.folded = MicroF(model, queries);
  return cell;
}

/// Half-width of the two-sided 95% Student-t interval of the mean.
double Ci95(const std::vector<double>& values) {
  static constexpr double kT975[] = {
      0.0,   12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228, 2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
      2.086, 2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
      2.042};
  if (values.size() < 2) return 0.0;
  const std::size_t df = values.size() - 1;
  const double t = df < std::size(kT975) ? kT975[df] : 1.96;
  return t * Summarize(values).stddev /
         std::sqrt(static_cast<double>(values.size()));
}

std::string MeanCi(const std::vector<double>& values) {
  char text[48];
  std::snprintf(text, sizeof(text), "%.3f ± %.3f", Summarize(values).mean,
                Ci95(values));
  return text;
}

// (building, seed, dim) -> cell of a --pair-with run at one step count.
using Baseline = std::map<std::tuple<std::string, std::uint64_t, std::size_t>,
                          Cell>;

Baseline ReadBaseline(const std::string& path) {
  std::ifstream in(path);
  Require(in.good(), "refine_curve: cannot read " + path);
  Baseline baseline;
  std::size_t baseline_steps = 0;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string tag, building;
    std::uint64_t seed = 0;
    std::size_t dim = 0, steps = 0;
    Cell cell;
    if (!(fields >> tag >> building >> seed >> dim >> steps >> cell.fresh >>
          cell.folded) ||
        tag != "row") {
      continue;
    }
    Require(baseline_steps == 0 || baseline_steps == steps,
            "refine_curve: --pair-with needs rows at one step count");
    baseline_steps = steps;
    baseline[{building, seed, dim}] = cell;
  }
  Require(!baseline.empty(), "refine_curve: no row lines in " + path);
  return baseline;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  RequireKnownFlags(args, {"--dim", "--steps", "--buildings", "--pair-with"});
  const std::size_t dim =
      ParseUnsigned(FlagValue(args, "--dim", "8"), 1024, "--dim");
  std::vector<std::size_t> step_counts;
  for (const std::string& steps :
       SplitList(FlagValue(args, "--steps", "50,100,200,300,600"))) {
    step_counts.push_back(ParseUnsigned(steps, 100000, "--steps"));
  }
  const std::vector<std::string> buildings = SplitList(FlagValue(
      args, "--buildings", "ms-0,ms-1,ms-3,ms-7,campus,hk-office-tower-1"));
  const std::string pair_with = FlagValue(args, "--pair-with", "");

  std::printf("== refine curve: micro-F vs online SGD steps, dim %zu, "
              "%llu seeds ==\n",
              dim, static_cast<unsigned long long>(kSeeds));
  std::printf("   %zu fresh-position queries; fresh model, then after %zu "
              "folded records in batches of %zu\n",
              kQueries, kFolds, kFoldBatch);

  // One deterministic job per (building, seed, step count); results land by
  // index, so the output does not depend on the thread count.
  std::vector<synth::BuildingConfig> configs;
  for (const std::string& name : buildings) {
    configs.push_back(FindBuilding(name));
  }
  std::vector<std::vector<Cell>> results(
      buildings.size() * kSeeds, std::vector<Cell>(step_counts.size()));
  {
    ThreadPool pool(0);
    std::vector<std::future<void>> jobs;
    for (std::size_t b = 0; b < buildings.size(); ++b) {
      for (std::uint64_t s = 0; s < kSeeds; ++s) {
        for (std::size_t k = 0; k < step_counts.size(); ++k) {
          jobs.push_back(pool.Submit([&, b, s, k] {
            results[b * kSeeds + s][k] =
                RunJob(configs[b], s + 1, dim, step_counts[k]);
          }));
        }
      }
    }
    for (std::future<void>& job : jobs) job.get();
  }

  std::printf("\n%-6s %-18s %5s %4s %6s %8s %8s\n", "", "building", "seed",
              "dim", "steps", "fresh", "folded");
  for (std::size_t b = 0; b < buildings.size(); ++b) {
    for (std::uint64_t s = 0; s < kSeeds; ++s) {
      for (std::size_t k = 0; k < step_counts.size(); ++k) {
        const Cell& cell = results[b * kSeeds + s][k];
        std::printf("row    %-18s %5llu %4zu %6zu %8.6f %8.6f\n",
                    buildings[b].c_str(), static_cast<unsigned long long>(s + 1),
                    dim, step_counts[k], cell.fresh, cell.folded);
      }
    }
  }

  std::printf("\nmean ± 95%% CI over seeds\n");
  std::printf("%-18s %6s %16s %16s\n", "building", "steps", "fresh",
              "folded");
  for (std::size_t b = 0; b < buildings.size(); ++b) {
    for (std::size_t k = 0; k < step_counts.size(); ++k) {
      std::vector<double> fresh, folded;
      for (std::uint64_t s = 0; s < kSeeds; ++s) {
        fresh.push_back(results[b * kSeeds + s][k].fresh);
        folded.push_back(results[b * kSeeds + s][k].folded);
      }
      std::printf("%-18s %6zu %16s %16s\n", buildings[b].c_str(),
                  step_counts[k], MeanCi(fresh).c_str(),
                  MeanCi(folded).c_str());
    }
  }

  if (pair_with.empty()) return 0;
  const Baseline baseline = ReadBaseline(pair_with);
  std::printf("\npaired difference (this run - %s), mean ± 95%% CI over "
              "seeds; 'all' averages the buildings within each seed first\n",
              pair_with.c_str());
  std::printf("%-18s %6s %16s %16s\n", "building", "steps", "fresh",
              "folded");
  for (std::size_t k = 0; k < step_counts.size(); ++k) {
    std::vector<double> all_fresh(kSeeds, 0.0), all_folded(kSeeds, 0.0);
    for (std::size_t b = 0; b < buildings.size(); ++b) {
      std::vector<double> fresh, folded;
      for (std::uint64_t s = 0; s < kSeeds; ++s) {
        const auto found = baseline.find({buildings[b], s + 1, dim});
        Require(found != baseline.end(),
                "refine_curve: " + pair_with + " has no row for " +
                    buildings[b] + " seed " + std::to_string(s + 1));
        const Cell& cell = results[b * kSeeds + s][k];
        fresh.push_back(cell.fresh - found->second.fresh);
        folded.push_back(cell.folded - found->second.folded);
        all_fresh[s] += fresh.back() / static_cast<double>(buildings.size());
        all_folded[s] +=
            folded.back() / static_cast<double>(buildings.size());
      }
      std::printf("%-18s %6zu %16s %16s\n", buildings[b].c_str(),
                  step_counts[k], MeanCi(fresh).c_str(),
                  MeanCi(folded).c_str());
    }
    std::printf("%-18s %6zu %16s %16s\n", "all", step_counts[k],
                MeanCi(all_fresh).c_str(), MeanCi(all_folded).c_str());
  }
  return 0;
}
