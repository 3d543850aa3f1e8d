// Golden-profile suite: Philox-seeded paper-DGP fixtures with hard-coded
// CV / LSCV profiles, evaluated through every sweep backend. The expected
// arrays below were produced by the direct O(n²·k) objectives (cv_score,
// kde_lscv_score) at double precision; every fast backend must reproduce
// them to 1e-12 relative, so any regression in the sweep algebra — sort,
// admission, moment recombination, reductions — fails loudly against a
// fixed number rather than against another live backend that might drift
// in the same direction.
//
// Regenerating (only after an *intentional* numeric change): evaluate the
// direct objective on data::paper_dgp(n, rng::Stream(2024 + n)) over
// BandwidthGrid::default_for(data, k), and kde_lscv_score on
// data::paper_dgp(n, rng::Stream(3024 + n)).x over BandwidthGrid(0.05,
// 1.5, k), printing with %.17g.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/kreg.hpp"
#include "rng/stream.hpp"
#include "spmd/device.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::KernelType;
using kreg::Precision;
using kreg::SweepAlgorithm;
using kreg::data::Dataset;
using kreg::rng::Stream;

constexpr double kTol = 1e-12;

constexpr std::array<double, 5> kCvProfileN50K5 = {
    0.12811355660027299,
    0.57288337523147004,
    1.7727294666345881,
    3.7363677993937086,
    6.1009275885672967,
};

constexpr std::array<double, 50> kCvProfileN50K50 = {
    0.036829919504693914,
    0.058681382314832164,
    0.05221606422057419,
    0.066052735959204772,
    0.073308295787104127,
    0.088534842885994725,
    0.10450498296119508,
    0.11131667860356105,
    0.11989632143400554,
    0.1281135566002731,
    0.14605015767175636,
    0.17204413208375935,
    0.19847413530019609,
    0.2332970125207047,
    0.27034175257596899,
    0.3094192528206402,
    0.35766971158365679,
    0.41652926815654395,
    0.48879386002276776,
    0.57288337523147004,
    0.6608362235705405,
    0.76056279261197579,
    0.86968028300659772,
    0.98065727918147905,
    1.1042822860090202,
    1.2266349948751205,
    1.3532711711664347,
    1.4888704487290711,
    1.629780873952744,
    1.7727294666345881,
    1.9226814577533953,
    2.0733798556146672,
    2.2334526986022096,
    2.4034816424364256,
    2.5809944406889782,
    2.78330828459627,
    3.0049425787751161,
    3.2392977836318555,
    3.4836841206721827,
    3.7363677993937068,
    3.9821478355663156,
    4.2236518482629775,
    4.4638209342334392,
    4.7105769592919486,
    4.9548596458530492,
    5.1945123257312265,
    5.4301953217018539,
    5.6622183732003126,
    5.8851554214386121,
    6.1009275885672967,
};

constexpr std::array<double, 5> kCvProfileN200K5 = {
    0.14101960294231433,
    0.79032966838745766,
    2.031056950123427,
    4.0211744841681352,
    5.9688853695039601,
};

constexpr std::array<double, 50> kCvProfileN200K50 = {
    0.031242443611751526,
    0.028704426674216233,
    0.030808154326976648,
    0.03201016750587321,
    0.035983874871799243,
    0.043397169491767633,
    0.057465013809982993,
    0.077540552712954694,
    0.10512919368200795,
    0.14101960294231439,
    0.18080586967417972,
    0.22417756670065142,
    0.27168608776423225,
    0.32846170387146906,
    0.39461720285042778,
    0.46408345600265571,
    0.53558346286959546,
    0.61260585985196703,
    0.69798609441822368,
    0.79032966838745766,
    0.88501886343033132,
    0.9813199907624357,
    1.0853499697394176,
    1.1974469118207829,
    1.314807285023615,
    1.4388615093253154,
    1.5714647842961103,
    1.7146433956793965,
    1.8677490909000736,
    2.031056950123427,
    2.2049368285400051,
    2.3865137116947324,
    2.5742033208032642,
    2.7689486090878521,
    2.9708057522538018,
    3.1762931405908863,
    3.3838207423665647,
    3.5927744258055787,
    3.8041768313042974,
    4.0211744841681352,
    4.2414150183646662,
    4.4605035513915574,
    4.6753053419854078,
    4.8836306575550452,
    5.0841401849133865,
    5.2750774058931746,
    5.4587020419093202,
    5.6364764886677881,
    5.8070139689977784,
    5.9688853695039601,
};

constexpr std::array<double, 5> kLscvProfileN50K5 = {
    -0.65588666836174081,
    -0.87054012601292452,
    -0.80233585082245451,
    -0.68189137025373014,
    -0.55455191717999108,
};

constexpr std::array<double, 50> kLscvProfileN200K50 = {
    -0.87785503531816889,
    -0.90634434779885409,
    -0.91709103264795144,
    -0.92341962896573804,
    -0.92153191982398164,
    -0.91279087492002497,
    -0.90783155496180112,
    -0.90189926467017234,
    -0.89435912030696685,
    -0.88792988866446798,
    -0.88268831036332618,
    -0.87846526760614863,
    -0.87382237853065192,
    -0.87047803240326427,
    -0.86749258769223914,
    -0.86409471020470852,
    -0.86012308455420172,
    -0.85538460240664305,
    -0.85003262262616852,
    -0.84366565914883607,
    -0.83682618422735389,
    -0.82954050297562676,
    -0.82185608969492963,
    -0.81381156394389786,
    -0.80554469581094124,
    -0.79716261863690085,
    -0.7884645973097526,
    -0.77953842469652213,
    -0.77044022064219164,
    -0.76115298711872859,
    -0.75160957000450768,
    -0.74171528024421285,
    -0.73148388116466823,
    -0.72083300340217127,
    -0.70986511297855126,
    -0.69870870942883001,
    -0.687464783803024,
    -0.6762125473357713,
    -0.66501390966494578,
    -0.6539169969943508,
    -0.6429589287872518,
    -0.63216801861567795,
    -0.62156552544603016,
    -0.61116705221703427,
    -0.60098366641319267,
    -0.59102280056011791,
    -0.58128897778474342,
    -0.57178439779014623,
    -0.56250941105201524,
    -0.55346290320435187,
};

Dataset regression_fixture(std::size_t n) {
  Stream s(2024 + n);
  return kreg::data::paper_dgp(n, s);
}

std::vector<double> kde_fixture(std::size_t n) {
  Stream s(3024 + n);
  return kreg::data::paper_dgp(n, s).x;
}

void expect_profile(std::span<const double> actual,
                    std::span<const double> expected, const char* backend) {
  ASSERT_EQ(actual.size(), expected.size()) << backend;
  for (std::size_t b = 0; b < expected.size(); ++b) {
    EXPECT_NEAR(actual[b], expected[b],
                kTol * std::max(1.0, std::abs(expected[b])))
        << backend << " b=" << b;
  }
}

struct RegressionFixture {
  std::size_t n;
  std::size_t k;
  std::span<const double> expected;
};

const std::array<RegressionFixture, 4> kRegressionFixtures = {{
    {50, 5, kCvProfileN50K5},
    {50, 50, kCvProfileN50K50},
    {200, 5, kCvProfileN200K5},
    {200, 50, kCvProfileN200K50},
}};

class GoldenRegression
    : public ::testing::TestWithParam<std::size_t /*fixture index*/> {};

TEST_P(GoldenRegression, EveryBackendReproducesTheGoldenCvProfile) {
  const RegressionFixture& fx = kRegressionFixtures[GetParam()];
  const Dataset data = regression_fixture(fx.n);
  const BandwidthGrid grid = BandwidthGrid::default_for(data, fx.k);

  // Direct objective (the generator of the golden values).
  std::vector<double> direct(fx.k);
  for (std::size_t b = 0; b < fx.k; ++b) {
    direct[b] = kreg::cv_score(data, grid[b]);
  }
  expect_profile(direct, fx.expected, "direct");

  // Host backends.
  expect_profile(kreg::NaiveGridSelector().select(data, grid).scores,
                 fx.expected, "naive");
  expect_profile(kreg::SortedGridSelector().select(data, grid).scores,
                 fx.expected, "per-row-sort");
  expect_profile(kreg::ParallelSortedGridSelector().select(data, grid).scores,
                 fx.expected, "parallel-per-row-sort");
  expect_profile(kreg::WindowSweepSelector().select(data, grid).scores,
                 fx.expected, "window");
  expect_profile(kreg::WindowSweepSelector(KernelType::kEpanechnikov,
                                           Precision::kDouble,
                                           /*parallel=*/true)
                     .select(data, grid)
                     .scores,
                 fx.expected, "window-parallel");

  // Device backends (double precision; float cannot hold 1e-12).
  kreg::spmd::Device dev;
  kreg::SpmdSelectorConfig per_row;
  per_row.precision = Precision::kDouble;
  per_row.algorithm = SweepAlgorithm::kPerRowSort;
  expect_profile(kreg::SpmdGridSelector(dev, per_row).select(data, grid).scores,
                 fx.expected, "spmd-per-row");
  kreg::SpmdSelectorConfig window_cfg;
  window_cfg.precision = Precision::kDouble;
  expect_profile(
      kreg::SpmdGridSelector(dev, window_cfg).select(data, grid).scores,
      fx.expected, "spmd-window");
  // The streamed 2-D (n-block × k-block) plan must reproduce the same
  // golden profile: block sizes deliberately misaligned with n and k.
  kreg::SpmdSelectorConfig tiled_cfg;
  tiled_cfg.precision = Precision::kDouble;
  tiled_cfg.stream.n_block = 7;
  tiled_cfg.stream.k_block = 3;
  expect_profile(
      kreg::SpmdGridSelector(dev, tiled_cfg).select(data, grid).scores,
      fx.expected, "spmd-window-2d-streamed");
  // The host tiled profile folds in the sequential sweep's order: the
  // window profile bit for bit.
  const std::vector<double> window =
      kreg::window_cv_profile(data, grid.values(), KernelType::kEpanechnikov);
  const std::vector<double> host_tiled = kreg::window_cv_profile_tiled(
      data, grid.values(), KernelType::kEpanechnikov);
  ASSERT_EQ(host_tiled.size(), window.size());
  for (std::size_t b = 0; b < window.size(); ++b) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(host_tiled[b]),
              std::bit_cast<std::uint64_t>(window[b]))
        << "host-tiled b=" << b;
  }

  // The 1-D ray sweep is the same objective with ratios = {1}.
  const kreg::data::MDataset multi = kreg::data::to_multivariate(data);
  const std::vector<double> unit_ratio = {1.0};
  expect_profile(
      kreg::multi_ray_cv_profile(multi, unit_ratio, grid.values(),
                                 KernelType::kEpanechnikov),
      fx.expected, "ray-per-row");
  expect_profile(
      kreg::multi_ray_cv_profile_window(multi, unit_ratio, grid.values(),
                                        KernelType::kEpanechnikov),
      fx.expected, "ray-window");
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenRegression,
                         ::testing::Range<std::size_t>(0, 4),
                         [](const auto& suite_info) {
                           const auto& fx = kRegressionFixtures[suite_info.param];
                           std::string name = "n";
                           name += std::to_string(fx.n);
                           name += "k";
                           name += std::to_string(fx.k);
                           return name;
                         });

struct KdeFixture {
  std::size_t n;
  std::size_t k;
  std::span<const double> expected;
};

const std::array<KdeFixture, 2> kKdeFixtures = {{
    {50, 5, kLscvProfileN50K5},
    {200, 50, kLscvProfileN200K50},
}};

class GoldenKde
    : public ::testing::TestWithParam<std::size_t /*fixture index*/> {};

TEST_P(GoldenKde, EveryBackendReproducesTheGoldenLscvProfile) {
  const KdeFixture& fx = kKdeFixtures[GetParam()];
  const std::vector<double> xs = kde_fixture(fx.n);
  const BandwidthGrid grid(0.05, 1.5, fx.k);

  std::vector<double> direct(fx.k);
  for (std::size_t b = 0; b < fx.k; ++b) {
    direct[b] = kreg::kde_lscv_score(xs, grid[b]);
  }
  expect_profile(direct, fx.expected, "direct");

  expect_profile(
      kreg::kde_sweep_lscv_profile(xs, grid.values(),
                                   KernelType::kEpanechnikov),
      fx.expected, "kde-per-row-sort");
  expect_profile(
      kreg::kde_window_lscv_profile(xs, grid.values(),
                                    KernelType::kEpanechnikov),
      fx.expected, "kde-window");

  kreg::spmd::Device dev;
  kreg::SpmdKdeConfig per_row;
  per_row.algorithm = SweepAlgorithm::kPerRowSort;
  expect_profile(kreg::SpmdKdeSelector(dev, per_row).select(xs, grid).scores,
                 fx.expected, "spmd-kde-per-row");
  expect_profile(kreg::SpmdKdeSelector(dev).select(xs, grid).scores,
                 fx.expected, "spmd-kde-window");
  kreg::SpmdKdeConfig tiled;
  tiled.stream.n_block = 7;
  tiled.stream.k_block = 3;
  expect_profile(kreg::SpmdKdeSelector(dev, tiled).select(xs, grid).scores,
                 fx.expected, "spmd-kde-2d-streamed");
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenKde,
                         ::testing::Range<std::size_t>(0, 2),
                         [](const auto& suite_info) {
                           const auto& fx = kKdeFixtures[suite_info.param];
                           std::string name = "n";
                           name += std::to_string(fx.n);
                           name += "k";
                           name += std::to_string(fx.k);
                           return name;
                         });

}  // namespace
