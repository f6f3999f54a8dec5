// Vector-kernel tests: exact goldens that pin the accumulation order of Dot
// and SquaredL2Distance, the one-to-many kernels against the one-to-one
// ones, zero-length and NaN/inf behaviour, and a seeded RefineNewNodes run
// whose golden values were captured before the kernel layer existed.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "embed/embedding_store.h"
#include "embed/trainer.h"
#include "graph/bipartite_graph.h"
#include "graph/weight_function.h"
#include "rf/signal_record.h"

namespace grafics {
namespace {

// Rng::Uniform is exact IEEE arithmetic on xoshiro256** bits, so these are
// the same doubles on every host.
std::vector<double> FixedVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

double LeftToRightDot(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double LeftToRightSquaredL2Distance(const double* a, const double* b,
                                    std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// --- accumulation-order goldens --------------------------------------------
// Captured from the 4-lane AVX2 kernels this implementation replaced, on
// FixedVector(n, 100 + n) and FixedVector(n, 200 + n). n = 3 is tail-only,
// 8 has no tail, 11 and 67 have both. Exact equality: a different order
// changes trained models, journal replay and checkpoint restore bits.
struct OrderGolden {
  std::size_t n;
  double dot;
  double squared_l2_distance;
};

constexpr OrderGolden kOrderGoldens[] = {
    {3, -3.3125504039289857, 13.933493599448962},
    {8, -1.946417487293159, 26.479959341947705},
    {11, 7.1162633474034829, 12.212496028748809},
    {67, -1.0195764765100319, 181.88943853332881},
};

TEST(SimdKernelTest, DotAndDistanceMatchOrderGoldens) {
  for (const OrderGolden& golden : kOrderGoldens) {
    const std::vector<double> a = FixedVector(golden.n, 100 + golden.n);
    const std::vector<double> b = FixedVector(golden.n, 200 + golden.n);
    EXPECT_EQ(simd::Dot(a.data(), b.data(), golden.n), golden.dot)
        << "n=" << golden.n;
    EXPECT_EQ(simd::SquaredL2Distance(a.data(), b.data(), golden.n),
              golden.squared_l2_distance)
        << "n=" << golden.n;
  }
}

// Rows of a Matrix with odd cols start at arbitrary offsets.
TEST(SimdKernelTest, UnalignedOffsetMatchesOrderGolden) {
  const std::vector<double> pool = FixedVector(160, 7);
  const double* a = pool.data() + 3;
  const double* b = pool.data() + 83;
  EXPECT_EQ(simd::Dot(a, b, 67), -1.3919553600714889);
  EXPECT_EQ(simd::SquaredL2Distance(a, b, 67), 205.52148055102069);
}

// The goldens pin the order only if another order misses them: a plain
// left-to-right loop rounds these inputs differently.
TEST(SimdKernelTest, LeftToRightOrderMissesOrderGoldens) {
  const OrderGolden& golden = kOrderGoldens[3];
  const std::vector<double> a = FixedVector(golden.n, 100 + golden.n);
  const std::vector<double> b = FixedVector(golden.n, 200 + golden.n);
  EXPECT_NE(LeftToRightDot(a.data(), b.data(), golden.n), golden.dot);
  EXPECT_NE(LeftToRightSquaredL2Distance(a.data(), b.data(), golden.n),
            golden.squared_l2_distance);
}

TEST(SimdKernelTest, ManyKernelsEqualPerRowKernels) {
  const std::size_t rows = 9;
  for (const std::size_t cols : {1ul, 3ul, 8ul, 11ul, 33ul}) {
    const std::vector<double> query = FixedVector(cols, 300 + cols);
    const std::vector<double> block = FixedVector(rows * cols, 400 + cols);
    std::vector<double> dots(rows), distances(rows);
    simd::DotMany(query.data(), block.data(), rows, cols, dots.data());
    simd::SquaredL2DistanceMany(query.data(), block.data(), rows, cols,
                                distances.data());
    for (std::size_t r = 0; r < rows; ++r) {
      const double* row = block.data() + r * cols;
      EXPECT_EQ(dots[r], simd::Dot(query.data(), row, cols))
          << "cols=" << cols << " r=" << r;
      EXPECT_EQ(distances[r], simd::SquaredL2Distance(query.data(), row, cols))
          << "cols=" << cols << " r=" << r;
    }
  }
}

TEST(SimdKernelTest, ZeroLengthIsSafe) {
  const std::vector<double> empty;
  double out = 1.0;
  EXPECT_EQ(simd::Dot(empty.data(), empty.data(), 0), 0.0);
  EXPECT_EQ(simd::SquaredL2Distance(empty.data(), empty.data(), 0), 0.0);
  simd::Axpy(2.0, empty.data(), nullptr, 0);
  simd::DotMany(empty.data(), empty.data(), 0, 0, &out);
  EXPECT_EQ(out, 1.0);  // num_rows == 0 writes nothing
}

TEST(SimdKernelTest, NanAndInfPropagate) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // NaN anywhere poisons the reduction: n = 8 puts it in a partial sum,
  // n = 3 and 11 in the tail.
  for (const std::size_t n : {3ul, 8ul, 11ul}) {
    std::vector<double> a(n, 1.0);
    std::vector<double> b(n, 2.0);
    a[n - 1] = kNan;
    EXPECT_TRUE(std::isnan(simd::Dot(a.data(), b.data(), n))) << "n=" << n;
    EXPECT_TRUE(std::isnan(simd::SquaredL2Distance(a.data(), b.data(), n)))
        << "n=" << n;
    a[n - 1] = kInf;
    EXPECT_EQ(simd::Dot(a.data(), b.data(), n), kInf);
    // (inf - 2)^2 = inf.
    EXPECT_EQ(simd::SquaredL2Distance(a.data(), b.data(), n), kInf);
    // inf - inf inside the distance is NaN.
    b[n - 1] = kInf;
    EXPECT_TRUE(std::isnan(simd::SquaredL2Distance(a.data(), b.data(), n)));
    std::vector<double> y(n, 0.0);
    simd::Axpy(1.0, a.data(), y.data(), n);
    EXPECT_EQ(y[n - 1], kInf);
    simd::Axpy(-1.0, a.data(), y.data(), n);  // inf + (-inf) = NaN
    EXPECT_TRUE(std::isnan(y[n - 1]));
  }
}

// --- refine golden ----------------------------------------------------------
// Golden values captured from the build before the kernel layer existed
// (commit 4af2caf) with the identical seeded pipeline: offline training on a
// two-community graph, one grown node, RefineNewNodes for 100 iterations.
// They must reproduce to the last bit. At these small embedding magnitudes
// the sigmoid absorbs last-bit kernel differences, so this run cannot see a
// reduction order; the SimdKernelTest order goldens above pin that.

rf::SignalRecord MakeRecord(
    std::initializer_list<std::pair<int, double>> observations) {
  rf::SignalRecord record;
  for (const auto& [mac, rssi] : observations) {
    record.Add(rf::MacAddress(static_cast<std::uint64_t>(mac)), rssi);
  }
  return record;
}

TEST(SimdGoldenTest, ReproducesPreSimdRefineRun) {
  std::vector<rf::SignalRecord> records;
  for (int base : {100, 200}) {
    for (int r = 0; r < 4; ++r) {
      rf::SignalRecord rec;
      for (int m = 0; m < 4; ++m) {
        rec.Add(rf::MacAddress(static_cast<std::uint64_t>(base + m)), -55.0);
      }
      records.push_back(std::move(rec));
    }
  }
  auto graph = graph::BipartiteGraph::FromRecords(records,
                                                  graph::OffsetWeight(120.0));
  embed::TrainerConfig config;
  config.samples_per_edge = 50;
  config.dropout = 0.0;
  config.seed = 1234;
  embed::EmbeddingStore store = embed::TrainEmbeddings(graph, config);
  const std::size_t nodes_before = graph.NumNodes();
  const graph::NodeId new_node = graph.AddRecord(
      MakeRecord({{100, -50.0}, {101, -55.0}, {102, -60.0}}),
      graph::OffsetWeight(120.0));
  Rng rng(5);
  store.Grow(graph.NumNodes() - nodes_before, rng);
  const std::vector<graph::NodeId> new_nodes = {new_node};
  embed::RefineNewNodes(graph, new_nodes, store, config, 100);

  const double kGoldenEgo[8] = {
      -0.034028237245881714, 0.013271457364177671, 0.033890079274176844,
      0.045236679827145493,  -0.027931263889281969, -0.032403083282112104,
      -0.0013361076425529351, -0.09004115025224993};
  const double kGoldenContext[8] = {
      0.037897748725178017,  0.036564981516817689, -0.018372312502568804,
      -0.02642353027513553,  0.0048045964950852145, 0.040115729542545178,
      -0.037778109816078681, 0.087218899627806504};
  const std::span<const double> ego = store.Ego(new_node);
  const std::span<const double> context = store.Context(new_node);
  ASSERT_EQ(ego.size(), 8u);
  ASSERT_EQ(context.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ego[i], kGoldenEgo[i]) << "ego[" << i << "]";
    EXPECT_EQ(context[i], kGoldenContext[i]) << "context[" << i << "]";
  }
}

}  // namespace
}  // namespace grafics
