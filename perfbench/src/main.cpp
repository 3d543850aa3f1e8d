// kreg_perfbench — runs one benchmark workload against the kreg library and
// the kreg_serve daemon and prints its result as one JSON line.
//
//   kreg_perfbench --workload <paper-n20k|paper-wide-k|stream-1m|serve-mix>
//                  --seed N --seconds S --trace 0|1 --run-dir DIR
//                  [--serve-binary PATH]
//                  [--dump-inputs] [--corrupt]
//
// perfbench/run.py builds this program and is the benchmark's entry point;
// it adds the machine and build record and checks the metric names.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " requires a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--serve-binary") {
      options.serve_binary = value();
    } else if (arg == "--run-dir") {
      options.run_dir = value();
    } else if (arg == "--dump-inputs") {
      options.dump_inputs = true;
    } else if (arg == "--corrupt") {
      options.corrupt = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (options.workload.empty() || options.run_dir.empty() ||
      options.seconds <= 0.0) {
    throw std::invalid_argument(
        "--workload, --run-dir and a positive --seconds are required");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kreg_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    perfbench::Result result;
    if (perfbench::is_batch_workload(options.workload)) {
      result = perfbench::run_batch(options);
    } else if (options.workload == "serve-mix") {
      result = perfbench::run_serve_mix(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
    if (!options.dump_inputs) {
      std::printf("%s\n", result.to_json().c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kreg_perfbench: %s\n", e.what());
    return 1;
  }
}
