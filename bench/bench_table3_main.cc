// Regenerates Table 3 (main results, §6.1): for every benchmark — example
// sizes, sketch search-space size, synthesis time, number of rules,
// predicates per rule, rules syntactically identical to the golden
// ("optimal") program, distance to optimal in extra body predicates, and
// end-to-end migration time on a generated instance.
//
// Both stages run through one Session per benchmark, each call bounded by a
// 300 s RunContext. Migration runs at a configurable scale (default 200
// primary entities per benchmark; pass a number as argv[1] to change it).
// A failed migration prints its error in the Migrate(ms) column and is left
// out of that column's average. Absolute times are not comparable to the
// paper's GB-scale datasets; the shape (seconds-level synthesis, migration
// dominated by evaluation) is.

#include <cmath>
#include <cstdio>
#include <string>

#include "api/session.h"
#include "bench_util.h"
#include "datalog/simplify.h"
#include "util/timer.h"
#include "workload/benchmarks.h"

int main(int argc, char** argv) {
  using namespace dynamite;
  using namespace dynamite::workload;

  size_t migration_scale =
      argc > 1 ? bench::ParsePositiveOrExit<size_t>(argv[1], "bench_table3_main [scale]") : 200;

  std::printf("Table 3: Main results (migration scale = %zu primary entities)\n\n",
              migration_scale);
  bench::TablePrinter table({{"Benchmark", 12},
                             {"ExIn", 6},
                             {"ExOut", 7},
                             {"SearchSpace", 13},
                             {"Synth(s)", 10},
                             {"Rules", 7},
                             {"Preds/Rule", 12},
                             {"OptimRules", 12},
                             {"DistOptim", 11},
                             {"Migrate(ms)", 12}});
  table.PrintHeader();

  double sum_synth = 0, sum_preds = 0, sum_rules = 0, sum_optim = 0, sum_dist = 0,
         sum_migr_ms = 0, log_space = 0;
  size_t solved = 0, migrated_ok = 0;

  for (const Benchmark& b : AllBenchmarks()) {
    auto example = MakeExample(b, b.example_seed, b.example_scale);
    if (!example.ok()) {
      table.PrintRow({b.name, "-", "-", "-", "example-gen failed", "-", "-", "-", "-"});
      continue;
    }
    auto session = Session::Create(b.source, b.target);
    if (!session.ok()) {
      table.PrintRow({b.name, "-", "-", "-", session.status().ToString()});
      continue;
    }
    auto result = session->Synthesize(*example, RunContext::WithTimeout(300));
    if (!result.ok()) {
      table.PrintRow({b.name, std::to_string(example->input.roots.size()),
                      std::to_string(example->output.roots.size()), "-",
                      result.status().ToString(), "-", "-", "-", "-"});
      continue;
    }
    ++solved;

    // Quality metrics vs the golden program.
    Program golden_simplified = SimplifyProgram(b.golden);
    size_t optim_rules = 0;
    int dist = 0;
    size_t body_preds = 0;
    for (const Rule& rule : result->program.rules) {
      body_preds += rule.body.size();
      // Match against the golden rule with the same head relation.
      const Rule* golden_rule = nullptr;
      for (const Rule& g : golden_simplified.rules) {
        if (!g.heads.empty() && !rule.heads.empty() &&
            g.heads[0].relation == rule.heads[0].relation) {
          golden_rule = &g;
        }
      }
      if (golden_rule != nullptr) {
        if (rule.body.size() == golden_rule->body.size() &&
            RuleIsomorphic(rule, *golden_rule)) {
          ++optim_rules;
        }
        dist += DistanceToOptimal(rule, *golden_rule);
      }
    }

    // Migration at scale: the cell shows the time, or the error that
    // stopped the migration.
    std::string migrate_cell;
    auto source = GenerateSource(b, /*seed=*/123, migration_scale);
    if (!source.ok()) {
      migrate_cell = source.status().ToString();
    } else {
      Timer timer;
      auto migrated = session->Migrate(result->program, *source, /*stats=*/nullptr,
                                       RunContext::WithTimeout(300));
      if (migrated.ok()) {
        double ms = timer.ElapsedSeconds() * 1e3;
        migrate_cell = bench::Fmt("%.1f", ms);
        sum_migr_ms += ms;
        ++migrated_ok;
      } else {
        migrate_cell = migrated.status().ToString();
      }
    }

    size_t n_rules = result->program.rules.size();
    double preds_per_rule = static_cast<double>(body_preds) / static_cast<double>(n_rules);
    table.PrintRow(
        {b.name, std::to_string(example->input.roots.size()),
         std::to_string(example->output.roots.size()), bench::FmtSci(result->search_space),
         bench::Fmt("%.2f", result->seconds), std::to_string(n_rules),
         bench::Fmt("%.1f", preds_per_rule), std::to_string(optim_rules),
         bench::Fmt("%.2f", static_cast<double>(dist) / static_cast<double>(n_rules)),
         migrate_cell});

    sum_synth += result->seconds;
    sum_rules += static_cast<double>(n_rules);
    sum_preds += preds_per_rule;
    sum_optim += static_cast<double>(optim_rules);
    sum_dist += static_cast<double>(dist) / static_cast<double>(n_rules);
    log_space += std::log10(result->search_space);
  }

  if (solved > 0) {
    double n = static_cast<double>(solved);
    table.PrintRow({"Average", "-", "-", "1e" + bench::Fmt("%.0f", log_space / n),
                    bench::Fmt("%.2f", sum_synth / n), bench::Fmt("%.1f", sum_rules / n),
                    bench::Fmt("%.1f", sum_preds / n), bench::Fmt("%.1f", sum_optim / n),
                    bench::Fmt("%.2f", sum_dist / n),
                    migrated_ok > 0 ? bench::Fmt("%.1f", sum_migr_ms / static_cast<double>(migrated_ok))
                                    : std::string("-")});
  }
  std::printf("\nSolved %zu / %zu benchmarks; migrated %zu of the solved.\n", solved,
              AllBenchmarks().size(), migrated_ok);
  std::printf("Paper reference: 28/28 solved, avg synthesis 7.3s, avg search space "
              "5.1e39,\navg 8.0 rules, 2.5 preds/rule, 5.8 optimal rules, dist 0.79.\n");
  return 0;
}
