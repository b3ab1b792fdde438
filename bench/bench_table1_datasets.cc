// Regenerates Table 1: the dataset inventory. Our datasets are synthetic
// substitutes with matching schema shape, since the repository ships no
// copy of the paper's raw data (see src/workload/datagen.h); this harness
// reports both the paper's raw sizes and the generated-instance statistics
// at the default reproduction scale.

#include <cstdio>

#include "bench_util.h"
#include "workload/families.h"

int main() {
  using namespace dynamite;
  using namespace dynamite::workload;

  std::printf("Table 1: Datasets used in the evaluation\n");
  std::printf("(synthetic generators with matching schema shape; 'paper size' is the\n");
  std::printf("original raw dump the generator substitutes)\n\n");

  bench::TablePrinter table({{"Name", 10},
                             {"PaperSize", 11},
                             {"Kind", 6},
                             {"RecTypes", 10},
                             {"PrimAttrs", 11},
                             {"Records@200", 13},
                             {"Description", 40}});
  table.PrintHeader();
  for (const Family& f : AllFamilies()) {
    RecordForest instance = f.generate(/*seed=*/1, /*scale=*/200);
    table.PrintRow({f.name, f.paper_size, std::string(1, f.kind),
                    std::to_string(f.schema.RecordNames().size()),
                    std::to_string(f.schema.PrimAttrbs().size()),
                    std::to_string(instance.TotalRecords()), f.description});
  }
  return 0;
}
