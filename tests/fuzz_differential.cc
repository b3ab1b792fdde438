// Differential + fault-injection fuzzer (not a gtest: own main, CLI flags).
//
// Two modes:
//
//   fuzz_differential [--iterations=N] [--seed=S]
//     N rounds of seeded random pipelines. Each round builds either a random
//     flat relational schema pair (synthesized end-to-end) or one of the 28
//     workload benchmarks (golden program), then checks three invariants:
//       1. Parity: the Session and the bare Migrator stage produce
//          identical target instances.
//       2. Fault tolerance: re-running with a randomly armed failpoint
//          (random site, kind, trigger) either reproduces the baseline
//          bit-identically or fails with a typed Status from the injected
//          set — never a crash, never an untyped error.
//       3. Recovery: after DisarmAll, the same Session/engine objects
//          reproduce the baseline (no stale state from the aborted run).
//     Every round also migrates the source again with each record's prims
//     shuffled: the target forest and the migration counts must not change.
//     Golden rounds also pad one random rule with an all-wildcard atom or a
//     self-joined pair R(g, _, ...), R(g, _, ...) on a variable of its own,
//     which shares no variable with the head or the other atoms. Over
//     a non-empty source relation the padded program must reproduce the
//     baseline, also under the armed failpoint (the engine output row for
//     row, in insertion order); over an empty one the
//     rule must derive nothing.
//     Every ~16th round instead exercises memory governance: meters the
//     migration's byte charges through a caller-provided MemoryBudget
//     (which must override SessionOptions::max_memory_bytes), then requires
//     kResourceExhausted under a budget far below the metered charge.
//
//   fuzz_differential --smoke [--seed=S]
//     Fires every registered failpoint site once per kind
//     (resource/cancel/timeout/badalloc) through a fresh small pipeline and
//     requires OK-or-typed on each stage. CI runs this under TSan; the
//     fuzz loop runs under ASan+UBSan (see .github/workflows/ci.yml).
//
// The seed is printed on startup; any failure reprints it with the
// iteration, so every finding is one command away from a reproduction.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "api/session.h"
#include "datalog/engine.h"
#include "datalog/index.h"
#include "migrate/facts.h"
#include "migrate/migrator.h"
#include "schema/schema_builder.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/rng.h"
#include "workload/benchmarks.h"
#include "workload/datagen.h"

namespace dynamite {
namespace {

struct CliOptions {
  size_t iterations = 25;
  uint64_t seed = 1;
  bool smoke = false;
};

uint64_t g_seed = 0;
size_t g_iteration = 0;

#define FUZZ_ASSERT(cond, ...)                                              \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "\nFUZZ FAILURE (seed=%" PRIu64 " iteration=%zu): %s\n", \
                   g_seed, g_iteration, #cond);                             \
      std::fprintf(stderr, "  " __VA_ARGS__);                               \
      std::fprintf(stderr, "\n");                                           \
      std::exit(1);                                                         \
    }                                                                       \
  } while (false)

/// Status codes a fault-injected run is allowed to surface. Anything else
/// (or a crash) is a finding.
bool IsInjectable(StatusCode code) {
  return code == StatusCode::kResourceExhausted || code == StatusCode::kCancelled ||
         code == StatusCode::kTimeout || code == StatusCode::kOutOfRange;
}

/// One self-contained fuzz case: schemas, a program (synthesized or golden),
/// an example (empty for golden cases), and a migration-scale instance.
struct FuzzCase {
  Schema source;
  Schema target;
  Example example;   ///< non-empty iff the case synthesizes its program
  bool synthesized = false;
  Program program;   ///< golden program for workload cases, else unset
  RecordForest instance;
  std::string label;
};

/// Random flat relational projection pair: one source table with 2-6 mixed
/// int/string columns, one target table selecting a random nonempty subset
/// (target attributes are renamed, values copied verbatim). Projections keep
/// synthesis fast (small sketch space) while still exercising mapping
/// inference, SAT enumeration, candidate evaluation, and full migration.
FuzzCase MakeProjectionCase(Rng* rng) {
  FuzzCase fc;
  fc.synthesized = true;
  fc.label = "projection";

  const size_t ncols = 2 + rng->NextIndex(5);
  std::vector<AttrDecl> src_cols;
  std::vector<bool> is_string(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    // Always at least one string column: string cells route through the
    // interner, keeping string_pool.intern live in every case.
    is_string[c] = c == 0 || rng->NextBool(0.4);
    src_cols.push_back({"c" + std::to_string(c) + "_" + rng->NextIdent(4),
                        is_string[c] ? PrimitiveType::kString : PrimitiveType::kInt});
  }
  std::vector<size_t> picked = rng->SampleIndices(ncols, 1 + rng->NextIndex(ncols));
  std::vector<AttrDecl> tgt_cols;
  for (size_t c : picked) {
    tgt_cols.push_back({"t_" + src_cols[c].name, src_cols[c].type});
  }

  RelationalSchemaBuilder sb;
  sb.AddTable("Src", src_cols);
  fc.source = sb.Build().ValueOrDie();
  RelationalSchemaBuilder tb;
  tb.AddTable("Tgt", tgt_cols);
  fc.target = tb.Build().ValueOrDie();

  // A row of fresh cell values; the per-case ident prefix keeps string cells
  // novel across cases (each run interns strings it has never seen).
  auto make_row = [&](std::vector<Value>* cells) {
    cells->clear();
    for (size_t c = 0; c < ncols; ++c) {
      if (is_string[c]) {
        cells->push_back(Value::String(rng->NextIdent(3) + "_" + rng->NextIdent(5)));
      } else {
        cells->push_back(Value::Int(rng->NextInt(-1000, 1000)));
      }
    }
  };
  auto add_pair = [&](RecordForest* in, RecordForest* out, const std::vector<Value>& cells) {
    RecordNode src_rec;
    src_rec.type = "Src";
    for (size_t c = 0; c < ncols; ++c) src_rec.prims.push_back({src_cols[c].name, cells[c]});
    in->roots.push_back(std::move(src_rec));
    if (out == nullptr) return;
    RecordNode tgt_rec;
    tgt_rec.type = "Tgt";
    for (size_t i = 0; i < picked.size(); ++i) {
      tgt_rec.prims.push_back({tgt_cols[i].name, cells[picked[i]]});
    }
    out->roots.push_back(std::move(tgt_rec));
  };

  std::vector<Value> cells;
  const size_t example_rows = 3 + rng->NextIndex(4);
  for (size_t r = 0; r < example_rows; ++r) {
    make_row(&cells);
    add_pair(&fc.example.input, &fc.example.output, cells);
  }
  // Instances of 20 to 519 rows.
  const size_t instance_rows = 20 + rng->NextIndex(500);
  for (size_t r = 0; r < instance_rows; ++r) {
    make_row(&cells);
    add_pair(&fc.instance, nullptr, cells);
  }
  return fc;
}

/// Shared tail of the adversarial-distribution cases below: build the
/// schema pair from `src_cols` (target = renamed subset `picked`), then an
/// example whose cells are globally distinct (row-indexed pool values), so
/// mapping inference stays unambiguous regardless of how skewed the
/// *instance* is.
void FinishFlatCase(FuzzCase* fc, const std::vector<workload::FlatColumn>& src_cols,
                    const std::vector<size_t>& picked, Rng* rng) {
  std::vector<AttrDecl> src_decls;
  for (const workload::FlatColumn& col : src_cols) {
    src_decls.push_back(
        {col.attr, col.is_string ? PrimitiveType::kString : PrimitiveType::kInt});
  }
  std::vector<AttrDecl> tgt_decls;
  for (size_t c : picked) tgt_decls.push_back({"t_" + src_decls[c].name, src_decls[c].type});
  RelationalSchemaBuilder sb;
  sb.AddTable("Src", src_decls);
  fc->source = sb.Build().ValueOrDie();
  RelationalSchemaBuilder tb;
  tb.AddTable("Tgt", tgt_decls);
  fc->target = tb.Build().ValueOrDie();

  const size_t example_rows = 3 + rng->NextIndex(3);
  for (size_t r = 0; r < example_rows; ++r) {
    RecordNode src_rec;
    src_rec.type = "Src";
    std::vector<Value> cells;
    for (const workload::FlatColumn& col : src_cols) {
      // Distinct per (column, row) and disjoint across columns — the
      // opposite of the instance's heavy-duplicate pools.
      cells.push_back(col.is_string
                          ? Value::String(workload::Pooled("ex_" + col.attr, r))
                          : Value::Int(static_cast<int64_t>(1000 + r)));
    }
    for (size_t c = 0; c < src_cols.size(); ++c) {
      src_rec.prims.push_back({src_cols[c].attr, cells[c]});
    }
    fc->example.input.roots.push_back(std::move(src_rec));
    RecordNode tgt_rec;
    tgt_rec.type = "Tgt";
    for (size_t i = 0; i < picked.size(); ++i) {
      tgt_rec.prims.push_back({tgt_decls[i].name, cells[picked[i]]});
    }
    fc->example.output.roots.push_back(std::move(tgt_rec));
  }
}

/// Zipf-skewed case: projection schema, but the migration instance draws
/// every cell from small Zipf-skewed pools — duplicate-heavy rows and hash
/// groups with giant posting lists. Adversarial for the matcher (a few
/// first-atom rows fan out into most of the output) and for ingest dedup.
FuzzCase MakeSkewedCase(Rng* rng) {
  FuzzCase fc;
  fc.synthesized = true;
  fc.label = "zipf";
  const size_t ncols = 2 + rng->NextIndex(4);
  std::vector<workload::FlatColumn> src_cols;
  for (size_t c = 0; c < ncols; ++c) {
    src_cols.push_back({"z" + std::to_string(c) + "_" + rng->NextIdent(4),
                        /*is_string=*/c == 0 || rng->NextBool(0.5),
                        /*pool_size=*/2 + rng->NextIndex(30)});
  }
  std::vector<size_t> picked = rng->SampleIndices(ncols, 1 + rng->NextIndex(ncols));
  FinishFlatCase(&fc, src_cols, picked, rng);
  const double s = 0.6 + 0.2 * rng->NextIndex(6);  // 0.6 .. 1.6
  fc.instance = workload::ZipfFlatInstance("Src", src_cols,
                                           300 + rng->NextIndex(500), s, rng);
  return fc;
}

/// Wide-row case: 24-40 columns. Every row touches many column vectors, so
/// columnar filter/gather layout bugs that narrow tables hide surface here.
FuzzCase MakeWideRowCase(Rng* rng) {
  FuzzCase fc;
  fc.synthesized = true;
  fc.label = "wide";
  const size_t ncols = 24 + rng->NextIndex(17);
  std::vector<workload::FlatColumn> src_cols =
      workload::WideColumns(ncols, /*pool_size=*/8 + rng->NextIndex(56));
  // Disambiguate column identity across cases (pool names feed the string
  // interner; a per-case suffix keeps interning live like the other cases).
  for (workload::FlatColumn& col : src_cols) col.attr += "_" + rng->NextIdent(3);
  std::vector<size_t> picked = rng->SampleIndices(ncols, 4 + rng->NextIndex(6));
  FinishFlatCase(&fc, src_cols, picked, rng);
  fc.instance = workload::ZipfFlatInstance("Src", src_cols, 200 + rng->NextIndex(300),
                                           /*s=*/0.4, rng);
  return fc;
}

/// Workload case: a random Table 2 benchmark, migrated with its golden
/// program (synthesis of the hard benchmarks is its own test; the fuzzer
/// uses them for schema/instance diversity at migration scale).
FuzzCase MakeWorkloadCase(Rng* rng) {
  const auto& all = workload::AllBenchmarks();
  const workload::Benchmark& bench = all[rng->NextIndex(all.size())];
  FuzzCase fc;
  fc.label = "workload:" + bench.name;
  fc.source = bench.source;
  fc.target = bench.target;
  fc.program = bench.golden;
  const size_t scale = 30 + rng->NextIndex(150);
  auto instance = workload::GenerateSource(bench, rng->Next(), scale);
  FUZZ_ASSERT(instance.ok(), "GenerateSource(%s): %s", bench.name.c_str(),
              instance.status().ToString().c_str());
  fc.instance = std::move(instance).ValueOrDie();
  return fc;
}

Session MakeSession(const FuzzCase& fc, size_t max_memory_bytes = 0) {
  SessionOptions so;
  so.max_memory_bytes = max_memory_bytes;
  auto session = Session::Create(fc.source, fc.target, so);
  FUZZ_ASSERT(session.ok(), "Session::Create(%s): %s", fc.label.c_str(),
              session.status().ToString().c_str());
  return std::move(session).ValueOrDie();
}

/// Runs the case's pipeline on `session`: synthesize (when the case carries
/// an example) then migrate. Returns the first non-OK status, or OK with the
/// program/output filled in.
Status RunPipeline(const Session& session, const FuzzCase& fc, Program* program,
                   RecordForest* output) {
  if (fc.synthesized) {
    auto synth = session.Synthesize(fc.example);
    if (!synth.ok()) return synth.status();
    *program = synth.ValueOrDie().program;
  } else {
    *program = fc.program;
  }
  auto migrated = session.Migrate(*program, fc.instance);
  if (!migrated.ok()) return migrated.status();
  *output = std::move(migrated).ValueOrDie();
  return Status::OK();
}

/// Arms a random (site, kind, trigger) combination. Synthesized cases skip
/// the timeout kind: the synthesizer deliberately treats a per-candidate
/// kTimeout as "this candidate is too expensive" and moves on to the next
/// model, so an injected timeout can legitimately steer enumeration to a
/// different (equally consistent) program — by design, not a bug, but it
/// breaks the fuzzer's bit-identical baseline comparison.
std::string ArmRandomFault(Rng* rng, bool include_timeout) {
  std::vector<std::string> sites = failpoint::KnownSites();
  FUZZ_ASSERT(!sites.empty(), "no failpoint sites registered after a baseline run");
  const std::string& site = sites[rng->NextIndex(sites.size())];
  std::vector<const char*> kinds = {"resource", "cancel", "badalloc", "oor"};
  if (include_timeout) kinds.push_back("timeout");
  const char* kind = kinds[rng->NextIndex(kinds.size())];
  std::string trigger;
  if (rng->NextBool(0.6)) {
    trigger = "hit_" + std::to_string(1 + rng->NextIndex(12));
    if (rng->NextBool(0.3)) trigger += "+";
  } else {
    trigger = "p=0." + std::to_string(1 + rng->NextIndex(8)) + "@" +
              std::to_string(rng->Next() & 0xffff);
  }
  std::string spec = trigger + ":" + kind;
  Status st = failpoint::ArmFromString(site, spec);
  FUZZ_ASSERT(st.ok(), "ArmFromString(%s, %s): %s", site.c_str(), spec.c_str(),
              st.ToString().c_str());
  return site + ":" + spec;
}

/// `program` with padding over `relation` (of `arity`) inserted at random
/// positions of rule `rule_idx`'s body: either one all-wildcard atom, or a
/// self-joined pair relation(g, _, ...), relation(g, _, ...) on a variable g
/// no other atom of the rule uses. Both match exactly when `relation` is
/// non-empty.
Program PadRule(const Program& program, size_t rule_idx, const std::string& relation,
                size_t arity, Rng* rng) {
  Program padded = program;
  Rule& rule = padded.rules[rule_idx];
  Atom pad{relation, std::vector<Term>(arity, Term::Wildcard())};
  size_t copies = 1;
  if (rng->NextBool(0.5)) {
    std::set<std::string> used;
    for (const Atom& atom : rule.body) {
      for (const Term& t : atom.terms) {
        if (t.is_variable()) used.insert(t.var());
      }
    }
    std::string g = "g";
    while (used.count(g) > 0) g += "_";
    pad.terms[rng->NextIndex(arity)] = Term::Var(g);
    copies = 2;
  }
  for (size_t k = 0; k < copies; ++k) {
    rule.body.insert(
        rule.body.begin() + static_cast<std::ptrdiff_t>(rng->NextIndex(rule.body.size() + 1)),
        pad);
  }
  return padded;
}

/// Same relations with the same rows in the same insertion order.
bool RowsInOrderEqual(const FactDatabase& a, const FactDatabase& b) {
  if (a.RelationNames() != b.RelationNames()) return false;
  for (const std::string& name : a.RelationNames()) {
    const Relation& ra = *a.Find(name).ValueOrDie();
    const Relation& rb = *b.Find(name).ValueOrDie();
    if (ra.size() != rb.size() || ra.arity() != rb.arity()) return false;
    for (size_t c = 0; c < ra.arity(); ++c) {
      if (ra.column(c) != rb.column(c)) return false;
    }
  }
  return true;
}

/// `forest` with every record's prims shuffled: the same instance, read
/// through the name-scan path instead of the positional one.
RecordForest PermutePrims(RecordForest forest, Rng* rng) {
  std::vector<RecordNode*> stack;
  for (RecordNode& root : forest.roots) stack.push_back(&root);
  while (!stack.empty()) {
    RecordNode* node = stack.back();
    stack.pop_back();
    rng->Shuffle(&node->prims);
    for (auto& [attr, kids] : node->children) {
      for (RecordNode& k : kids) stack.push_back(&k);
    }
  }
  return forest;
}

/// Same records in the same order, down to prim and child-group order.
bool SameNodes(const std::vector<RecordNode>& a, const std::vector<RecordNode>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].prims != b[i].prims ||
        a[i].children.size() != b[i].children.size()) {
      return false;
    }
    for (size_t g = 0; g < a[i].children.size(); ++g) {
      if (a[i].children[g].first != b[i].children[g].first ||
          !SameNodes(a[i].children[g].second, b[i].children[g].second)) {
        return false;
      }
    }
  }
  return true;
}

bool SameCounts(const MigrationStats& a, const MigrationStats& b) {
  return a.source_records == b.source_records && a.source_facts == b.source_facts &&
         a.target_facts == b.target_facts && a.target_records == b.target_records &&
         a.ingest.child_index_builds == b.ingest.child_index_builds &&
         a.ingest.child_index_lookups == b.ingest.child_index_lookups;
}

/// Golden-round padding invariant, checked on the engine directly (the
/// existential atom must be invisible in the output) and through the
/// Session. Returns the padded program for the fault-injected rerun.
/// `rng` is a stream of its own, so the other invariants' draws are the same
/// with or without this check.
Program CheckPaddedGolden(const FuzzCase& fc, const Session& session,
                          const RecordForest& baseline_out, Rng* rng) {
  uint64_t next_id = 1;
  auto facts = ToFacts(fc.instance, fc.source, &next_id);
  FUZZ_ASSERT(facts.ok(), "[%s] ToFacts: %s", fc.label.c_str(),
              facts.status().ToString().c_str());
  FactDatabase edb = std::move(facts).ValueOrDie();
  std::vector<std::string> nonempty;
  for (const std::string& name : edb.RelationNames()) {
    if (!edb.Find(name).ValueOrDie()->empty()) nonempty.push_back(name);
  }
  FUZZ_ASSERT(!nonempty.empty(), "[%s] empty source instance", fc.label.c_str());
  const size_t rule_idx = rng->NextIndex(fc.program.rules.size());
  const std::string& pad_rel = nonempty[rng->NextIndex(nonempty.size())];
  Program padded =
      PadRule(fc.program, rule_idx, pad_rel, edb.Find(pad_rel).ValueOrDie()->arity(), rng);

  const auto signatures = FactSignatures(fc.target);
  auto eval = [&](const Program& program) {
    auto out = DatalogEngine().Eval(program, edb, signatures);
    FUZZ_ASSERT(out.ok(), "[%s] engine eval of\n%s\nfailed: %s", fc.label.c_str(),
                program.ToString().c_str(), out.status().ToString().c_str());
    return std::move(out).ValueOrDie();
  };
  FUZZ_ASSERT(RowsInOrderEqual(eval(fc.program), eval(padded)),
              "[%s] padding rule %zu over %s changed the engine output",
              fc.label.c_str(), rule_idx, pad_rel.c_str());
  auto out = session.Migrate(padded, fc.instance);
  FUZZ_ASSERT(out.ok(), "[%s] padded migration failed: %s", fc.label.c_str(),
              out.status().ToString().c_str());
  FUZZ_ASSERT(ForestEquals(out.ValueOrDie(), baseline_out),
              "[%s] padding rule %zu over %s changed the target instance",
              fc.label.c_str(), rule_idx, pad_rel.c_str());

  // Over an empty relation the padded rule derives nothing: the output is
  // the program's without that rule, and a head only it derives is empty.
  const size_t empty_arity = 1 + rng->NextIndex(3);
  FUZZ_ASSERT(edb.DeclareRelation("FuzzEmpty", std::vector<std::string>(empty_arity, "c")).ok(),
              "[%s] declaring the empty relation failed", fc.label.c_str());
  Program dropped = fc.program;
  dropped.rules.erase(dropped.rules.begin() + static_cast<std::ptrdiff_t>(rule_idx));
  const FactDatabase emptied =
      eval(PadRule(fc.program, rule_idx, "FuzzEmpty", empty_arity, rng));
  FUZZ_ASSERT(RowsInOrderEqual(emptied, eval(dropped)),
              "[%s] rule %zu padded over an empty relation still derived rows",
              fc.label.c_str(), rule_idx);
  for (const Atom& head : fc.program.rules[rule_idx].heads) {
    bool derived_elsewhere = false;
    for (const Rule& rule : dropped.rules) {
      for (const Atom& h : rule.heads) derived_elsewhere |= h.relation == head.relation;
    }
    FUZZ_ASSERT(derived_elsewhere || emptied.Find(head.relation).ValueOrDie()->empty(),
                "[%s] head %s of a rule padded over an empty relation is not empty",
                fc.label.c_str(), head.relation.c_str());
  }
  return padded;
}

void RunDifferentialIteration(Rng* rng) {
  FuzzCase fc;
  switch (rng->NextIndex(8)) {
    case 0:
    case 1:
    case 2:
      fc = MakeWorkloadCase(rng);
      break;
    case 3:
      fc = MakeSkewedCase(rng);
      break;
    case 4:
      fc = MakeWideRowCase(rng);
      break;
    default:
      fc = MakeProjectionCase(rng);
      break;
  }

  // --- invariant 1: parity with the bare stage ---------------------------
  Session session = MakeSession(fc);
  Program base_program;
  RecordForest base_out;
  Status st = RunPipeline(session, fc, &base_program, &base_out);
  FUZZ_ASSERT(st.ok(), "[%s] baseline failed: %s", fc.label.c_str(), st.ToString().c_str());
  Migrator stage(fc.source, fc.target);
  MigrationStats stage_stats;
  auto stage_out = stage.Migrate(base_program, fc.instance, &stage_stats);
  FUZZ_ASSERT(stage_out.ok(), "[%s] bare Migrator failed: %s", fc.label.c_str(),
              stage_out.status().ToString().c_str());
  FUZZ_ASSERT(ForestEquals(base_out, stage_out.ValueOrDie()),
              "[%s] bare Migrator output diverges", fc.label.c_str());
  {
    // Prim order is not part of the instance. A stream of its own keeps the
    // other invariants' draws the same with or without this check.
    Rng perm_rng(g_seed * 0x9e3779b97f4a7c15ULL + g_iteration + 0x9e3);
    MigrationStats permuted_stats;
    auto permuted_out =
        stage.Migrate(base_program, PermutePrims(fc.instance, &perm_rng), &permuted_stats);
    FUZZ_ASSERT(permuted_out.ok(), "[%s] migrating permuted prims failed: %s",
                fc.label.c_str(), permuted_out.status().ToString().c_str());
    FUZZ_ASSERT(SameNodes(permuted_out.ValueOrDie().roots, stage_out.ValueOrDie().roots),
                "[%s] permuting prims changed the target forest", fc.label.c_str());
    FUZZ_ASSERT(SameCounts(permuted_stats, stage_stats),
                "[%s] permuting prims changed the migration stats", fc.label.c_str());
  }
  Program padded;
  if (!fc.synthesized) {
    Rng pad_rng(g_seed * 0x9e3779b97f4a7c15ULL + g_iteration + 0x5eed);
    padded = CheckPaddedGolden(fc, session, base_out, &pad_rng);
  }

  // --- invariant 2: a fault-injected rerun is bit-identical or typed ------
  std::string fault = ArmRandomFault(rng, /*include_timeout=*/!fc.synthesized);
  Program injected_program;
  RecordForest injected_out;
  st = RunPipeline(session, fc, &injected_program, &injected_out);
  if (st.ok()) {
    FUZZ_ASSERT(injected_program == base_program,
                "[%s] fault %s: OK result but program diverges", fc.label.c_str(),
                fault.c_str());
    FUZZ_ASSERT(ForestEquals(injected_out, base_out),
                "[%s] fault %s: OK result but output diverges", fc.label.c_str(),
                fault.c_str());
  } else {
    FUZZ_ASSERT(IsInjectable(st.code()), "[%s] fault %s: untyped failure %s",
                fc.label.c_str(), fault.c_str(), st.ToString().c_str());
  }
  if (!fc.synthesized) {
    // The padded program under the same fault, re-armed so its trigger
    // counts from zero again.
    const size_t colon = fault.find(':');
    FUZZ_ASSERT(failpoint::ArmFromString(fault.substr(0, colon), fault.substr(colon + 1)).ok(),
                "re-arming %s failed", fault.c_str());
    auto padded_out = session.Migrate(padded, fc.instance);
    if (padded_out.ok()) {
      FUZZ_ASSERT(ForestEquals(padded_out.ValueOrDie(), base_out),
                  "[%s] fault %s: OK result but padded output diverges", fc.label.c_str(),
                  fault.c_str());
    } else {
      FUZZ_ASSERT(IsInjectable(padded_out.status().code()),
                  "[%s] fault %s: padded program failed untyped: %s", fc.label.c_str(),
                  fault.c_str(), padded_out.status().ToString().c_str());
    }
  }

  // --- invariant 3: the same objects recover fully after disarming --------
  failpoint::DisarmAll();
  Program recovered_program;
  RecordForest recovered_out;
  st = RunPipeline(session, fc, &recovered_program, &recovered_out);
  FUZZ_ASSERT(st.ok(), "[%s] post-fault rerun (after %s) failed: %s — engine not reusable",
              fc.label.c_str(), fault.c_str(), st.ToString().c_str());
  FUZZ_ASSERT(recovered_program == base_program && ForestEquals(recovered_out, base_out),
              "[%s] post-fault rerun (after %s) diverges from baseline", fc.label.c_str(),
              fault.c_str());
}

/// Memory-governance round: the same migration must fail typed under a tiny
/// byte budget and succeed untouched without one.
void RunMemoryGovernanceIteration(Rng* rng) {
  FuzzCase fc = MakeWorkloadCase(rng);
  Session unbounded = MakeSession(fc);
  auto baseline = unbounded.Migrate(fc.program, fc.instance);
  FUZZ_ASSERT(baseline.ok(), "[%s] unbounded migration failed: %s", fc.label.c_str(),
              baseline.status().ToString().c_str());

  // Meter the run's actual byte charges with an ample caller-provided
  // budget. Installing it in RunContext::memory must also override the
  // session's own (absurdly tight) limit — the documented precedence.
  MemoryBudget meter(size_t{1} << 34);
  RunContext metered_ctx;
  metered_ctx.memory = &meter;
  Session tight_opts = MakeSession(fc, /*max_memory_bytes=*/1);
  auto metered = tight_opts.Migrate(fc.program, fc.instance, nullptr, metered_ctx);
  FUZZ_ASSERT(metered.ok(), "[%s] caller budget did not override session limit: %s",
              fc.label.c_str(), metered.status().ToString().c_str());
  FUZZ_ASSERT(ForestEquals(baseline.ValueOrDie(), metered.ValueOrDie()),
              "[%s] metered migration output diverges", fc.label.c_str());

  // Starvation: a budget far below the metered charge must surface
  // kResourceExhausted. Small cases can legitimately finish on a few bytes
  // of charges, so only starve when there is real headroom — the poll points
  // need some post-exhaustion work left to observe the trip.
  if (meter.used() >= 4096) {
    const size_t starve_budget = meter.used() / 8;
    Session tiny = MakeSession(fc, starve_budget);
    auto starved = tiny.Migrate(fc.program, fc.instance);
    FUZZ_ASSERT(!starved.ok(),
                "[%s] migration under a %zu-byte budget succeeded (metered %zu)",
                fc.label.c_str(), starve_budget, meter.used());
    FUZZ_ASSERT(starved.status().code() == StatusCode::kResourceExhausted,
                "[%s] tiny budget surfaced %s, want kResourceExhausted", fc.label.c_str(),
                starved.status().ToString().c_str());
  }

  Session ample = MakeSession(fc, /*max_memory_bytes=*/size_t{1} << 34);
  auto roomy = ample.Migrate(fc.program, fc.instance);
  FUZZ_ASSERT(roomy.ok(), "[%s] migration under a 16GB budget failed: %s", fc.label.c_str(),
              roomy.status().ToString().c_str());
  FUZZ_ASSERT(ForestEquals(baseline.ValueOrDie(), roomy.ValueOrDie()),
              "[%s] budgeted migration output diverges", fc.label.c_str());
}

int RunFuzz(const CliOptions& cli) {
  std::printf("fuzz_differential seed=%" PRIu64 " iterations=%zu\n", cli.seed,
              cli.iterations);
  for (size_t i = 0; i < cli.iterations; ++i) {
    g_iteration = i;
    Rng rng(cli.seed * 0x9e3779b97f4a7c15ULL + i);
    if (i % 16 == 5) {
      RunMemoryGovernanceIteration(&rng);
    } else {
      RunDifferentialIteration(&rng);
    }
    if ((i + 1) % 25 == 0 || i + 1 == cli.iterations) {
      std::printf("  %zu/%zu iterations ok\n", i + 1, cli.iterations);
    }
  }
  std::printf("PASS: %zu iterations, seed=%" PRIu64 "\n", cli.iterations, cli.seed);
  return 0;
}

/// Smoke matrix: fire every registered site once per kind through a fresh
/// small pipeline; each stage must come back OK or typed. A fresh case per
/// combination keeps string interning live (novel strings every run) and
/// rules out cross-run contamination.
int RunSmoke(const CliOptions& cli) {
  std::printf("fuzz_differential --smoke seed=%" PRIu64 "\n", cli.seed);
  {
    // Baseline pipeline over an instance of at least 300 roots, so every
    // site registers before enumeration.
    Rng rng(cli.seed);
    FuzzCase fc = MakeProjectionCase(&rng);
    while (fc.instance.roots.size() < 300) {
      fc = MakeProjectionCase(&rng);
    }
    Session session = MakeSession(fc);
    Program program;
    RecordForest output;
    Status st = RunPipeline(session, fc, &program, &output);
    FUZZ_ASSERT(st.ok(), "smoke baseline failed: %s", st.ToString().c_str());
  }
  const std::vector<std::string> sites = failpoint::KnownSites();
  std::printf("  %zu registered sites\n", sites.size());
  static const char* kKinds[] = {"resource", "cancel", "timeout", "badalloc"};
  uint64_t combo = 0;
  for (const std::string& site : sites) {
    for (const char* kind : kKinds) {
      g_iteration = static_cast<size_t>(combo);
      // The case is built (and its strings interned) BEFORE arming: below
      // the pipeline's crash-free boundaries, an injected bad_alloc in raw
      // value construction would — correctly — escape, and that is not what
      // this matrix measures.
      Rng rng(cli.seed ^ (0xabcd0000 + combo++));
      FuzzCase fc = MakeProjectionCase(&rng);
      while (fc.instance.roots.size() < 300) {
        fc = MakeProjectionCase(&rng);
      }
      failpoint::DisarmAll();
      std::string spec = std::string("hit_1:") + kind;
      Status armed = failpoint::ArmFromString(site, spec);
      FUZZ_ASSERT(armed.ok(), "ArmFromString(%s, %s): %s", site.c_str(), spec.c_str(),
                  armed.ToString().c_str());
      Session session = MakeSession(fc);
      Program program;
      RecordForest output;
      Status st = RunPipeline(session, fc, &program, &output);
      if (st.ok() && site == "string_pool.intern") {
        // The pipeline interns nothing novel (all case strings predate the
        // arming), so this site needs a direct probe. Guarded here because
        // raw value construction sits below the pipeline boundaries.
        st = failpoint::GuardExceptions("intern", [&]() -> Status {
          return Value::TryString("smoke_probe_" + spec + site).status();
        });
      }
      if (st.ok() && site == "engine.index.refresh") {
        // Flat projection pipelines compile single-atom plans, which build
        // a join index only when the plan binds constants — case-dependent.
        // When this pipeline happened not to build one, probe the site
        // directly (same pattern as string_pool.intern above).
        st = failpoint::GuardExceptions("index refresh", [&]() -> Status {
          Relation rel("SmokeProbe", {"k"});
          Value one = Value::Int(1);
          rel.InsertRow(&one, 1);
          JoinIndex probe(rel, {0});
          return Status::OK();
        });
      }
      if (!st.ok()) {
        // An injected timeout during synthesis legitimately steers
        // enumeration (a per-candidate kTimeout means "too expensive, try
        // the next model" — see ArmRandomFault); when the discarded
        // candidate was the only consistent one, the steering surfaces as
        // kSynthesisFailure. Typed and by design, so acceptable here.
        const bool steered = std::strcmp(kind, "timeout") == 0 &&
                             st.code() == StatusCode::kSynthesisFailure;
        FUZZ_ASSERT(IsInjectable(st.code()) || steered, "%s:%s surfaced untyped failure %s",
                    site.c_str(), spec.c_str(), st.ToString().c_str());
      }
      // A first-hit injection of the default kind must be *observable*: the
      // pipeline executes every site, so the run fails typed.
      if (std::strcmp(kind, "resource") == 0) {
        FUZZ_ASSERT(!st.ok(), "%s:%s did not fire (pipeline came back OK)", site.c_str(),
                    spec.c_str());
      }
      std::printf("  %-28s %-8s -> %s\n", site.c_str(), kind,
                  st.ok() ? "OK (absorbed)" : StatusCodeToString(st.code()));
    }
  }
  failpoint::DisarmAll();

  std::printf("PASS: smoke matrix, %zu sites x %zu kinds\n", sites.size(),
              sizeof(kKinds) / sizeof(kKinds[0]));
  return 0;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.compare(0, std::strlen(prefix), prefix) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    if (const char* v = value("--iterations=")) {
      cli.iterations = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("--seed=")) {
      cli.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--smoke") {
      cli.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--iterations=N] [--seed=S] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  g_seed = cli.seed;
  return cli.smoke ? RunSmoke(cli) : RunFuzz(cli);
}

}  // namespace
}  // namespace dynamite

int main(int argc, char** argv) { return dynamite::Main(argc, argv); }
