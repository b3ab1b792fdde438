// Regenerates Figure 9(b): Dynamite vs the Mitra-like baseline on the four
// document-to-relational benchmarks, plus the §6.5 readability comparison
// (lines of generated JavaScript vs number of Datalog rules).

#include <cstdio>

#include "api/session.h"
#include "baselines/mitra.h"
#include "bench_util.h"
#include "workload/benchmarks.h"

namespace {
size_t CountLines(const std::string& text) {
  size_t lines = 1;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}
}  // namespace

int main() {
  using namespace dynamite;
  using namespace dynamite::workload;

  std::printf("Figure 9(b): comparison with Mitra on document-to-relational "
              "benchmarks\n\n");
  bench::TablePrinter table({{"Benchmark", 12},
                             {"Dynamite(s)", 13},
                             {"Mitra(s)", 10},
                             {"Speedup", 9},
                             {"DatalogRules", 14},
                             {"MitraJS-LoC", 13}});
  table.PrintHeader();

  double dyn_total = 0, mitra_total = 0;
  for (const char* name : {"Yelp-1", "IMDB-1", "DBLP-1", "Mondial-1"}) {
    const Benchmark* b = FindBenchmark(name);
    if (b == nullptr) continue;
    auto example = MakeExample(*b, b->example_seed, b->example_scale);
    if (!example.ok()) continue;

    auto session = Session::Create(b->source, b->target);
    if (!session.ok()) continue;
    auto dyn = session->Synthesize(*example);

    MitraOptions mitra_options;
    mitra_options.timeout_seconds = 300;
    MitraSynthesizer mitra(b->source, b->target, mitra_options);
    auto mit = mitra.Synthesize(*example);

    std::string dyn_s = dyn.ok() ? bench::Fmt("%.2f", dyn->seconds) : "fail";
    std::string mit_s = mit.ok() ? bench::Fmt("%.2f", mit->seconds) : "timeout";
    std::string speedup = (dyn.ok() && mit.ok() && dyn->seconds > 0)
                              ? bench::Fmt("%.1fx", mit->seconds / dyn->seconds)
                              : "-";
    table.PrintRow({name, dyn_s, mit_s, speedup,
                    dyn.ok() ? std::to_string(dyn->program.rules.size()) : "-",
                    mit.ok() ? std::to_string(CountLines(mit->javascript)) : "-"});
    if (dyn.ok()) dyn_total += dyn->seconds;
    if (mit.ok()) mitra_total += mit->seconds;
  }
  std::printf("\nTotals: Dynamite %.2fs, Mitra %.2fs\n", dyn_total, mitra_total);
  std::printf("Paper reference: Dynamite ~3s avg vs Mitra 29.4s avg (~10x); Mitra\n"
              "emits 134-780 LoC of JavaScript/XSLT vs ~13 Datalog rules.\n");
  return 0;
}
