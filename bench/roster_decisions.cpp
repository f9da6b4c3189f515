// DD-phase decisions of the Table 1 roster: the conversion gate, the gates
// run on the DD, the peak DD size and the plan compiles of every roster
// circuit must not depend on the thread count or on the run. Each circuit
// runs twice at 1 and twice at 4 threads on the flatdd backend; the bench
// prints the counters as a Markdown table, writes the table to
// roster_decisions.md, and exits 1 if any circuit's runs differ.

#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/harness.hpp"
#include "parallel/thread_pool.hpp"

namespace fdd::bench {
namespace {

constexpr std::array<unsigned, 2> kThreadCounts{1, 4};
constexpr int kRepeats = 2;

using Decisions = std::array<std::size_t, 4>;

Decisions decisionsOf(const engine::RunReport& r) {
  return {r.conversionGateIndex, r.ddGates, r.peakDDSize, r.planCompiles};
}

int run() {
  // An explicit thread count should get that many workers, as the CLI's
  // --threads does, even on hosts with fewer hardware threads.
  if (par::globalPool().size() < kThreadCounts.back()) {
    par::resizePool(kThreadCounts.back());
  }

  std::string table =
      "| Circuit | gates | conversionGateIndex | ddGates | peakDDSize | "
      "planCompiles | runs agree |\n|---|---|---|---|---|---|---|\n";
  std::vector<std::string> differing;
  for (const auto& bc : table1Circuits()) {
    // Each distinct outcome with the runs (e.g. "t4#2") that produced it.
    std::map<Decisions, std::string> seen;
    for (const unsigned threads : kThreadCounts) {
      for (int rep = 1; rep <= kRepeats; ++rep) {
        const engine::RunReport report =
            runBackend("flatdd", bc.circuit, {.threads = threads});
        std::string& runs = seen[decisionsOf(report)];
        runs += (runs.empty() ? "t" : ", t") + std::to_string(threads) +
                "#" + std::to_string(rep);
      }
    }
    const bool agree = seen.size() == 1;
    if (!agree) {
      differing.push_back(bc.name);
    }
    for (const auto& [d, runs] : seen) {
      table += "| " + bc.name + " | " +
               std::to_string(bc.circuit.numGates()) + " | " +
               std::to_string(d[0]) + " | " + std::to_string(d[1]) + " | " +
               std::to_string(d[2]) + " | " + std::to_string(d[3]) + " | " +
               (agree ? "yes" : "no: " + runs) + " |\n";
    }
  }
  std::fputs(table.c_str(), stdout);
  if (!tools::writeTextFile("roster_decisions.md", table)) {
    std::printf("WARNING: could not write roster_decisions.md\n");
  }

  if (!differing.empty()) {
    std::fprintf(stderr, "decisions differ between runs:");
    for (const auto& name : differing) {
      std::fprintf(stderr, " %s;", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fdd::bench

int main() { return fdd::bench::run(); }
