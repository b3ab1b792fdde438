// Regenerates Figure 9(a): Dynamite vs the Dynamite-Enum baseline (§6.4),
// extended with a third arm, Generalize without MDPs, that separates what
// the minimum distinguishing projections (§4.3) add over plain conflict
// generalization. Prints cactus-plot data — time to solve the first n
// benchmarks, benchmarks sorted by per-config solve time — plus iteration
// counts, which is where conflict-driven learning shows up most clearly.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "api/session.h"
#include "bench_util.h"
#include "workload/benchmarks.h"

namespace {

struct Arm {
  const char* name;
  bool use_analysis;
  bool use_mdp;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dynamite;
  using namespace dynamite::workload;

  // The paper used a 1 h timeout.
  double timeout =
      argc > 1 ? bench::ParsePositiveOrExit<double>(argv[1], "bench_fig9a_enum [timeout_seconds]")
               : 30.0;
  std::printf("Figure 9(a): sketch completion vs enumerative baseline "
              "(timeout %.0fs per benchmark)\n\n",
              timeout);

  const Arm arms[] = {{"Dynamite", true, true},
                      {"Generalize-only", true, false},
                      {"Dynamite-Enum", false, false}};

  bench::TablePrinter table({{"Config", 18},
                             {"Solved", 8},
                             {"TotalTime(s)", 14},
                             {"TotalIters", 12},
                             {"Cactus(s): time to solve first n", 40}});
  table.PrintHeader();

  for (const Arm& arm : arms) {
    std::vector<double> times;
    size_t solved = 0;
    size_t iters = 0;
    double total = 0;
    for (const Benchmark& b : AllBenchmarks()) {
      auto example = MakeExample(b, b.example_seed, b.example_scale);
      if (!example.ok()) continue;
      SessionOptions options;
      options.synthesis.use_analysis = arm.use_analysis;
      options.synthesis.use_mdp = arm.use_mdp;
      auto session = Session::Create(b.source, b.target, options);
      if (!session.ok()) continue;
      auto result = session->Synthesize(*example, RunContext::WithTimeout(timeout));
      if (result.ok()) {
        ++solved;
        times.push_back(result->seconds);
        total += result->seconds;
        iters += result->iterations;
      }
    }
    std::sort(times.begin(), times.end());
    // Cactus series: cumulative time after each solved benchmark (sampled).
    std::string cactus;
    double cumulative = 0;
    for (size_t i = 0; i < times.size(); ++i) {
      cumulative += times[i];
      if ((i + 1) % 7 == 0 || i + 1 == times.size()) {
        cactus += "n=" + std::to_string(i + 1) + ":" + bench::Fmt("%.1f", cumulative) + " ";
      }
    }
    table.PrintRow({arm.name, std::to_string(solved) + "/28", bench::Fmt("%.1f", total),
                    std::to_string(iters), cactus});
  }
  std::printf("\nPaper reference: Dynamite 28/28 within 1h, Dynamite-Enum 22/28;\n"
              "on commonly-solved benchmarks Dynamite is 9.2x faster.\n");
  return 0;
}
