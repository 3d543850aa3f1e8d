// Command-line selection engine: the downstream-user entry point the
// paper promises as an R package, delivered here as a standalone tool.
// Reads a two-column CSV (x,y), selects the CV-optimal smoothing parameter
// for the chosen estimator, and optionally prints the fitted curve.
//
// Usage:
//   kreg_cli <data.csv> [options]
//   kreg_cli --demo [n]            # run on freshly generated paper-DGP data
//
// Options:
//   --estimator nw|knn|oscv (default nw). nw: Nadaraya–Watson with the
//             LOO-CV bandwidth grid search. knn: k-NN regression, the
//             neighbour count selected by exact fast LOOCV over a k-grid
//             (methods window|tiled|spmd|naive). oscv: NW with the
//             bandwidth selected by one-sided CV and reported as the
//             rescaled h = C*b (same methods as knn).
//   --method  sorted|window|tiled|parallel|naive|dense|spmd|spmd-per-row|
//             optimizer|silverman|scott (default sorted; spmd runs the
//             window sweep, spmd-per-row the paper-faithful per-thread
//             sort, tiled the multicore window sweep — the window
//             method's bits on any core count — and parallel the per-row
//             sort on the pool, nw only)
//   --kernel  epanechnikov|uniform|triangular|biweight|triweight|cosine|
//             gaussian (default epanechnikov)
//   --k       grid size (default 200)
//   --hmin    minimum bandwidth (default: domain/k)
//   --hmax    maximum bandwidth (default: domain of X)
//   --refine  run 3 zoom rounds after the grid search
//   --curve N print the fitted regression curve at N points
//   --k-block N       stream the spmd window sweep in k-blocks of N
//   --n-block N       tile the observations too: stream in n-blocks of N
//                     (spmd window methods)
//   --memory-budget S device-memory budget for auto (n, k)-blocking, e.g.
//                     128MiB (sizes accept b/KB/KiB/MB/MiB/...)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/kreg.hpp"
#include "spmd/device.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <data.csv> | --demo [n]\n"
               "  [--estimator nw|knn|oscv]\n"
               "  [--method sorted|window|tiled|parallel|naive|dense|spmd|"
               "spmd-per-row|optimizer|silverman|scott]\n"
               "  (knn/oscv support window|tiled|spmd|naive)\n"
               "  [--kernel epanechnikov|uniform|triangular|biweight|"
               "triweight|cosine|gaussian]\n"
               "  [--k K] [--hmin H] [--hmax H] [--refine] [--curve N]\n"
               "  [--k-block N] [--n-block N] [--memory-budget SIZE]"
               " (spmd methods)\n",
               argv0);
  std::exit(2);
}

kreg::KernelType parse_kernel(const std::string& name) {
  for (kreg::KernelType k : kreg::kAllKernels) {
    if (name == kreg::to_string(k)) {
      return k;
    }
  }
  throw std::invalid_argument("unknown kernel: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
  }
  std::string input;
  std::size_t demo_n = 0;
  std::string method = "sorted";
  std::string estimator_name = "nw";
  std::string kernel_name = "epanechnikov";
  std::size_t k = 200;
  double hmin = 0.0;
  double hmax = 0.0;
  bool refine = false;
  std::size_t curve_points = 0;
  kreg::StreamingConfig stream;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--demo") {
      demo_n = (i + 1 < argc && argv[i + 1][0] != '-')
                   ? std::strtoul(argv[++i], nullptr, 10)
                   : 2000;
    } else if (arg == "--method") {
      method = next();
    } else if (arg == "--estimator") {
      estimator_name = next();
    } else if (arg == "--kernel") {
      kernel_name = next();
    } else if (arg == "--k") {
      k = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--hmin") {
      hmin = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--hmax") {
      hmax = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--refine") {
      refine = true;
    } else if (arg == "--curve") {
      curve_points = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--k-block") {
      stream.k_block = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--n-block") {
      stream.n_block = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--memory-budget") {
      try {
        stream.memory_budget_bytes = kreg::parse_memory_budget(next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        usage(argv[0]);
      }
    } else if (arg.rfind("--", 0) == 0) {
      usage(argv[0]);
    } else {
      input = arg;
    }
  }

  try {
    kreg::data::Dataset data;
    if (demo_n > 0) {
      kreg::rng::Stream rng(2017);
      data = kreg::data::paper_dgp(demo_n, rng);
      std::printf("demo mode: generated %zu paper-DGP observations\n",
                  demo_n);
    } else {
      if (input.empty()) {
        usage(argv[0]);
      }
      data = kreg::data::read_csv_file(input);
      std::printf("read %zu observations from %s\n", data.size(),
                  input.c_str());
    }
    data.validate();
    const kreg::KernelType kernel = parse_kernel(kernel_name);
    const kreg::EstimatorKind estimator = kreg::parse_estimator(estimator_name);
    if (estimator != kreg::EstimatorKind::kNadarayaWatson) {
      if (refine) {
        std::fprintf(stderr,
                     "error: --refine applies to the nw estimator only\n");
        return 2;
      }
      if (method == "sorted") {
        method = "window";  // the fast sweep is the natural default here
      }
    }

    // k-NN selects a neighbour count, not a bandwidth — no h-grid at all.
    if (estimator == kreg::EstimatorKind::kKnn) {
      const std::vector<std::size_t> kgrid =
          kreg::default_neighbor_grid(data.size(), k);
      std::vector<double> scores;
      std::string method_name;
      std::unique_ptr<kreg::spmd::Device> device;
      if (method == "window") {
        scores = kreg::knn_cv_profile(data, kgrid);
        method_name = "knn-window-sweep";
      } else if (method == "tiled") {
        scores = kreg::knn_cv_profile_tiled(data, kgrid);
        method_name = "knn-window-sweep-tiled";
      } else if (method == "spmd") {
        device = std::make_unique<kreg::spmd::Device>();
        kreg::KnnDeviceConfig cfg;
        cfg.stream = stream;
        scores = kreg::knn_cv_profile_device(*device, data, kgrid, cfg);
        method_name = "knn-window-sweep-spmd";
      } else if (method == "naive") {
        scores = kreg::knn_cv_profile_naive(data, kgrid);
        method_name = "knn-naive";
      } else {
        usage(argv[0]);
      }
      const kreg::KnnSelectionResult result = kreg::knn_selection_from_profile(
          kgrid, std::move(scores), std::move(method_name));
      std::printf("k = %zu neighbors (CV = %.6f) via %s [%zu evaluations]\n",
                  result.k, result.cv_score, result.method.c_str(),
                  result.grid.size());
      if (curve_points > 1) {
        const kreg::KnnRegression fit(data, result.k);
        const auto [mn, mx] =
            std::minmax_element(data.x.begin(), data.x.end());
        std::printf("x,fitted\n");
        for (std::size_t i = 0; i < curve_points; ++i) {
          const double x0 =
              *mn + (*mx - *mn) * static_cast<double>(i) /
                        static_cast<double>(curve_points - 1);
          std::printf("%.6f,%.6f\n", x0, fit.predict(x0));
        }
      }
      return 0;
    }

    // Rule-of-thumb methods need no grid.
    if (method == "silverman" || method == "scott") {
      const auto r = kreg::rule_of_thumb_select(
          data,
          method == "silverman" ? kreg::ThumbRule::kSilverman
                                : kreg::ThumbRule::kScott,
          kernel);
      std::printf("h = %.6f (CV = %.6f) via %s\n", r.bandwidth, r.cv_score,
                  r.method.c_str());
      return 0;
    }

    const double domain = data.x_domain();
    if (hmax <= 0.0) {
      hmax = domain;
    }
    if (hmin <= 0.0) {
      hmin = hmax / static_cast<double>(k);
    }
    const kreg::BandwidthGrid grid(hmin, hmax, k);

    // OSCV: minimize the one-sided criterion over the b-grid, then fit NW
    // at the rescaled two-sided bandwidth h = C*b.
    if (estimator == kreg::EstimatorKind::kOscv) {
      std::vector<double> scores;
      std::string method_name;
      std::unique_ptr<kreg::spmd::Device> device;
      if (method == "window") {
        scores = kreg::oscv_profile(data, grid.values(), kernel);
        method_name = "oscv-sweep";
      } else if (method == "tiled") {
        scores = kreg::oscv_profile_tiled(data, grid.values(), kernel);
        method_name = "oscv-sweep-tiled";
      } else if (method == "spmd") {
        device = std::make_unique<kreg::spmd::Device>();
        kreg::OscvDeviceConfig cfg;
        cfg.stream = stream;
        scores =
            kreg::oscv_profile_device(*device, data, grid.values(), kernel, cfg);
        method_name = "oscv-sweep-spmd";
      } else if (method == "naive") {
        scores = kreg::oscv_profile_naive(data, grid.values(), kernel);
        method_name = "oscv-naive";
      } else {
        usage(argv[0]);
      }
      kreg::SelectionResult result = kreg::selection_from_profile(
          grid, std::move(scores), std::move(method_name));
      const double rescale = kreg::oscv_rescale_constant(kernel);
      const double b_hat = result.bandwidth;
      result.bandwidth *= rescale;
      std::printf(
          "b = %.6f (OSCV = %.6f) -> h = %.6f (C = %.4f) via %s "
          "[%zu evaluations]\n",
          b_hat, result.cv_score, result.bandwidth, rescale,
          result.method.c_str(), result.evaluations);
      if (curve_points > 1) {
        const kreg::NadarayaWatson fit(data, result.bandwidth, kernel);
        const auto curve = fit.curve(curve_points);
        std::printf("x,fitted\n");
        for (std::size_t i = 0; i < curve.x.size(); ++i) {
          std::printf("%.6f,%.6f\n", curve.x[i], curve.y[i]);
        }
      }
      return 0;
    }

    std::unique_ptr<kreg::Selector> selector;
    std::unique_ptr<kreg::spmd::Device> device;
    if (method == "sorted") {
      selector = std::make_unique<kreg::SortedGridSelector>(kernel);
    } else if (method == "window") {
      selector = std::make_unique<kreg::WindowSweepSelector>(kernel);
    } else if (method == "tiled") {
      selector = std::make_unique<kreg::WindowSweepSelector>(
          kernel, kreg::Precision::kDouble, /*parallel=*/true);
    } else if (method == "spmd-per-row" || method == "spmd-window") {
      // spmd-window is kept as an explicit alias now that plain spmd
      // defaults to the window sweep.
      device = std::make_unique<kreg::spmd::Device>();
      kreg::SpmdSelectorConfig cfg;
      cfg.kernel = kernel;
      cfg.algorithm = method == "spmd-per-row"
                          ? kreg::SweepAlgorithm::kPerRowSort
                          : kreg::SweepAlgorithm::kWindow;
      cfg.stream = stream;
      selector = std::make_unique<kreg::SpmdGridSelector>(*device, cfg);
    } else if (method == "parallel") {
      selector = std::make_unique<kreg::ParallelSortedGridSelector>(kernel);
    } else if (method == "naive") {
      selector = std::make_unique<kreg::NaiveGridSelector>(kernel);
    } else if (method == "dense") {
      selector = std::make_unique<kreg::DenseGridSelector>(kernel);
    } else if (method == "spmd") {
      device = std::make_unique<kreg::spmd::Device>();
      kreg::SpmdSelectorConfig cfg;
      cfg.kernel = kernel;
      cfg.stream = stream;
      selector = std::make_unique<kreg::SpmdGridSelector>(*device, cfg);
    } else if (method == "optimizer") {
      kreg::CvOptimizerSelector::Config cfg;
      cfg.kernel = kernel;
      selector = std::make_unique<kreg::CvOptimizerSelector>(cfg);
    } else {
      usage(argv[0]);
    }

    kreg::SelectionResult result;
    if (refine) {
      result = kreg::refine_select(*selector, data, grid);
    } else {
      result = selector->select(data, grid);
    }
    std::printf("h = %.6f (CV = %.6f) via %s [%zu evaluations]\n",
                result.bandwidth, result.cv_score, result.method.c_str(),
                result.evaluations);

    if (curve_points > 1) {
      const kreg::NadarayaWatson fit(data, result.bandwidth, kernel);
      const auto curve = fit.curve(curve_points);
      std::printf("x,fitted\n");
      for (std::size_t i = 0; i < curve.x.size(); ++i) {
        std::printf("%.6f,%.6f\n", curve.x[i], curve.y[i]);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
