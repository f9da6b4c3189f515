// perfbench — the repository benchmark. One run measures one workload for
// --seconds and prints every metric by name with its unit; the last stdout
// line is the JSON result. See run.py for the workloads and metrics.
//
//   perfbench --workload oneshot-t1|oneshot-nproc|serve-trotter
//             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workload.hpp"

namespace {

perfbench::RunConfig parseArgs(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument(arg + " expects a value");
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace expects 0 or 1");
      }
      config.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (config.seconds <= 0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    perfbench::RunConfig config = parseArgs(argc, argv);
    const auto set = perfbench::guardedEnvSet();
    if (!set.empty()) {
      for (const std::string& name : set) {
        std::fprintf(stderr,
                     "perfbench: refusing to run: %s is set (it changes the "
                     "program under test)\n",
                     name.c_str());
      }
      return 2;
    }
    config.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s "
                "nproc=%u\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.seconds,
                config.trace ? 1 : 0, config.smoke ? " smoke" : "",
                config.nproc);
    perfbench::RunResult result;
    if (config.workload == "oneshot-t1") {
      result = perfbench::runOneshot(config, 1);
    } else if (config.workload == "oneshot-nproc") {
      result = perfbench::runOneshot(config, config.nproc);
    } else if (config.workload == "serve-trotter") {
      result = perfbench::runServe(config);
    } else {
      throw std::invalid_argument("unknown workload '" + config.workload +
                                  "'");
    }
    std::printf("fail_frac = %zu/%zu\n", result.failed, result.attempted);
    perfbench::printResult(result);
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 2;
  }
}
