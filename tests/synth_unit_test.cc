// Unit tests for the synthesis building blocks: MDP computation
// (Algorithm 4), Generalize / Analyze (Algorithm 3), sketch encoding, and
// the filtering extension (§5).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "api/run_context.h"
#include "datalog/simplify.h"
#include "migrate/facts.h"
#include "solver/fd.h"
#include "synth/analyze.h"
#include "synth/encode.h"
#include "synth/mdp.h"
#include "synth/sketch_gen.h"
#include "synth/synthesizer.h"
#include "migrate/migrator.h"
#include "util/metrics.h"
#include "testing.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

Relation AdmissionRel(std::vector<std::tuple<const char*, const char*, int>> rows) {
  Relation r("Admission", {"grad", "ug", "num"});
  for (auto& [g, u, n] : rows) {
    r.Insert(Tuple({Value::String(g), Value::String(u), Value::Int(n)}));
  }
  return r;
}

TEST(Mdp, Figure3ExampleYieldsNumAndGradUg) {
  // Figure 3 of the paper: actual has 2 rows, expected has 4; {num} is an
  // MDP, and {grad, ug} is another.
  Relation actual = AdmissionRel({{"U1", "U1", 10}, {"U2", "U2", 20}});
  Relation expected = AdmissionRel(
      {{"U1", "U1", 10}, {"U1", "U2", 50}, {"U2", "U2", 20}, {"U2", "U1", 40}});
  auto mdps = MDPSet(actual, expected);
  // {num} must be present (projections on num differ: {10,20} vs
  // {10,20,40,50}).
  bool has_num = false, has_grad_ug = false;
  for (const auto& mdp : mdps) {
    if (mdp == std::vector<std::string>{"num"}) has_num = true;
    if (mdp == std::vector<std::string>{"grad", "ug"}) has_grad_ug = true;
  }
  EXPECT_TRUE(has_num);
  EXPECT_TRUE(has_grad_ug);
  // Minimality: no MDP contains another.
  for (const auto& a : mdps) {
    for (const auto& b : mdps) {
      if (&a == &b) continue;
      EXPECT_FALSE(std::includes(b.begin(), b.end(), a.begin(), a.end()))
          << "non-minimal MDP set";
    }
  }
}

TEST(Mdp, EqualRelationsHaveNoMdp) {
  Relation r = AdmissionRel({{"A", "B", 1}});
  EXPECT_TRUE(MDPSet(r, r).empty());
}

TEST(Mdp, SingletonDifference) {
  Relation actual = AdmissionRel({{"A", "B", 1}});
  Relation expected = AdmissionRel({{"A", "B", 2}});
  auto mdps = MDPSet(actual, expected);
  ASSERT_FALSE(mdps.empty());
  EXPECT_EQ(mdps[0], std::vector<std::string>{"num"});
}

TEST(Mdp, EveryMdpActuallyDistinguishes) {
  // Property (Lemma 4): each returned set distinguishes the outputs, and
  // removing any attribute stops it from distinguishing.
  Relation actual = AdmissionRel({{"A", "B", 1}, {"C", "D", 2}, {"A", "D", 3}});
  Relation expected = AdmissionRel({{"A", "B", 1}, {"C", "B", 2}, {"A", "D", 3}});
  auto mdps = MDPSet(actual, expected);
  ASSERT_FALSE(mdps.empty());
  for (const auto& mdp : mdps) {
    auto pa = actual.Project(mdp).ValueOrDie();
    auto pe = expected.Project(mdp).ValueOrDie();
    EXPECT_FALSE(pa.SetEquals(pe));
    for (size_t drop = 0; drop < mdp.size(); ++drop) {
      std::vector<std::string> smaller;
      for (size_t i = 0; i < mdp.size(); ++i) {
        if (i != drop) smaller.push_back(mdp[i]);
      }
      if (smaller.empty()) continue;
      auto sa = actual.Project(smaller).ValueOrDie();
      auto se = expected.Project(smaller).ValueOrDie();
      EXPECT_TRUE(sa.SetEquals(se)) << "MDP not minimal";
    }
  }
}

// --- Generalize / blocking-clause soundness (Theorem 2) -------------------

struct MotivatingSetup {
  Schema src = testing::UnivSchema();
  Schema tgt = testing::AdmissionSchema();
  Example example = testing::MotivatingExample();
  RuleSketch sketch;
  FdSolver solver;
  SketchEncoding encoding;

  MotivatingSetup() {
    AttributeMapping psi = InferAttrMapping(src, tgt, example).ValueOrDie();
    sketch = GenRuleSketch(psi, src, tgt, "Admission", {}).ValueOrDie();
    encoding = EncodeSketch(sketch, &solver).ValueOrDie();
  }

  /// Runs a model's program on the example input, returning the canonical
  /// output forest.
  std::vector<std::string> Run(const SketchModel& model) {
    Rule rule = Instantiate(sketch, model).ValueOrDie();
    Program p;
    p.rules.push_back(rule);
    uint64_t next_id = 1;
    FactDatabase edb = ToFacts(example.input, src, &next_id).ValueOrDie();
    DatalogEngine engine;
    FactDatabase out = engine.Eval(p, edb, FactSignatures(tgt)).ValueOrDie();
    return CanonicalForest(BuildForest(out, tgt).ValueOrDie());
  }
};

TEST(Generalize, BlockedModelsAreReallyIncorrect) {
  // Sample a model, compute its blocking clause, then verify that several
  // models satisfying Generalize(σ, ϕ) produce ϕ-equivalent (hence
  // incorrect) outputs — the soundness property of Theorem 2.
  MotivatingSetup s;
  ASSERT_OK_AND_ASSIGN(bool sat1, s.solver.Solve());
  ASSERT_TRUE(sat1);
  SketchModel sigma = ExtractModel(s.encoding, s.solver);
  auto sigma_out = s.Run(sigma);

  std::vector<std::string> expected_canon;
  {
    RecordForest expected;
    for (const RecordNode& r : s.example.output.roots) expected.roots.push_back(r);
    expected_canon = CanonicalForest(expected);
  }
  if (sigma_out == expected_canon) GTEST_SKIP() << "first model already correct";

  // Constrain the solver to Generalize(σ) (all head vars pinned) and check
  // that every further model is also incorrect.
  std::set<std::string> all_heads = {"grad", "ug", "num"};
  ASSERT_OK(s.solver.AddConstraint(Generalize(s.sketch, s.encoding, sigma, all_heads)));
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(bool more, s.solver.Solve());
    if (!more) break;
    SketchModel variant = ExtractModel(s.encoding, s.solver);
    EXPECT_NE(s.Run(variant), expected_canon)
        << "Generalize admitted a correct program — unsound blocking";
    ASSERT_OK(s.solver.AddConstraint(FdExpr::Not(ModelEquality(s.encoding, variant))));
  }
}

TEST(Encode, CoverageMakesEveryModelWellFormed) {
  MotivatingSetup s;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(bool sat1, s.solver.Solve());
    if (!sat1) break;
    SketchModel m = ExtractModel(s.encoding, s.solver);
    // Instantiate validates range restriction — must never fail.
    EXPECT_TRUE(Instantiate(s.sketch, m).ok());
    ASSERT_OK(s.solver.AddConstraint(FdExpr::Not(ModelEquality(s.encoding, m))));
  }
}

TEST(Encode, UnproducibleTargetAttributeFailsFast) {
  // A target attribute whose values appear nowhere in the source cannot be
  // covered: encoding must fail with kSynthesisFailure.
  Schema src = testing::UnivSchema();
  Schema tgt = testing::AdmissionSchema();
  Example e = testing::MotivatingExample();
  // Corrupt the output: nums that do not occur in the input.
  for (RecordNode& r : e.output.roots) {
    for (auto& [attr, value] : r.prims) {
      if (attr == "num") value = Value::Int(999999);
    }
  }
  AttributeMapping psi = InferAttrMapping(src, tgt, e).ValueOrDie();
  auto sketch_or = GenRuleSketch(psi, src, tgt, "Admission", {});
  if (sketch_or.ok()) {
    FdSolver solver;
    auto enc = EncodeSketch(*sketch_or, &solver);
    EXPECT_FALSE(enc.ok());
  }  // else: sketch generation already failed, which is also acceptable
}

TEST(Synthesizer, FailsOnInconsistentExample) {
  Schema src = testing::UnivSchema();
  Schema tgt = testing::AdmissionSchema();
  Example e = testing::MotivatingExample();
  for (RecordNode& r : e.output.roots) {
    for (auto& [attr, value] : r.prims) {
      if (attr == "num") value = Value::Int(999999);
    }
  }
  Synthesizer synth(src, tgt);
  auto result = synth.Synthesize(e);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSynthesisFailure);
}

// --- Filtering extension (§5) ---------------------------------------------

TEST(Filtering, SynthesizesConstantFilter) {
  // Source: Person(name, dept); target keeps only dept "CS" names.
  auto src = RelationalSchemaBuilder()
                 .AddTable("Person", {{"pname", PrimitiveType::kString},
                                      {"pdept", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  auto tgt = RelationalSchemaBuilder()
                 .AddTable("CsPeople", {{"cs_name", PrimitiveType::kString},
                                        {"cs_dept", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  Example e;
  auto person = [&](const char* n, const char* d) {
    return testing::FlatRecord(
        "Person", {{"pname", Value::String(n)}, {"pdept", Value::String(d)}});
  };
  auto cs = [&](const char* n) {
    return testing::FlatRecord(
        "CsPeople", {{"cs_name", Value::String(n)}, {"cs_dept", Value::String("CS")}});
  };
  // Every name appears in two departments, so no name can serve as a
  // constant "anchor" for the department (e.g. Person("carol", d) would
  // yield two departments and overshoot the example) — the only
  // example-consistent filter is the department constant itself.
  e.input.roots = {person("alice", "CS"), person("alice", "EE"), person("carol", "CS"),
                   person("carol", "ME"), person("dan", "EE"), person("dan", "ME")};
  e.output.roots = {cs("alice"), cs("carol")};

  SynthesisOptions options;
  options.enable_filtering = true;
  Synthesizer synth(src, tgt, options);
  ASSERT_OK_AND_ASSIGN(SynthesisResult result, synth.Synthesize(e));

  // The synthesized rule must use the constant "CS" to filter.
  bool uses_constant = false;
  for (const Atom& atom : result.program.rules[0].body) {
    for (const Term& t : atom.terms) {
      if (t.is_constant() && t.constant() == Value::String("CS")) uses_constant = true;
    }
  }
  EXPECT_TRUE(uses_constant) << result.program.ToString();

  // And it must generalize: a fresh EE person must stay excluded.
  RecordForest validation;
  validation.roots = {person("erin", "CS"), person("frank", "EE")};
  Migrator migrator(src, tgt);
  ASSERT_OK_AND_ASSIGN(RecordForest out, migrator.Migrate(result.program, validation));
  RecordForest expected;
  expected.roots = {cs("erin")};
  EXPECT_TRUE(ForestEquals(out, expected)) << result.program.ToString();
}

TEST(Filtering, WithoutFlagNoConstantIsUsed) {
  // Same scenario but filtering disabled: synthesis must fail (no
  // filter-free program matches the example).
  auto src = RelationalSchemaBuilder()
                 .AddTable("Person", {{"pname", PrimitiveType::kString},
                                      {"pdept", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  auto tgt = RelationalSchemaBuilder()
                 .AddTable("CsPeople", {{"cs_name", PrimitiveType::kString},
                                        {"cs_dept", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  Example e;
  auto person = [&](const char* n, const char* d) {
    return testing::FlatRecord(
        "Person", {{"pname", Value::String(n)}, {"pdept", Value::String(d)}});
  };
  e.input.roots = {person("alice", "CS"), person("bob", "EE")};
  e.output.roots = {testing::FlatRecord(
      "CsPeople", {{"cs_name", Value::String("alice")}, {"cs_dept", Value::String("CS")}})};
  Synthesizer synth(src, tgt);  // filtering off
  auto result = synth.Synthesize(e);
  EXPECT_FALSE(result.ok());
}

TEST(SynthesizeDistinct, FindsAmbiguityOfExample10) {
  // Example 10 of the paper: one example admits both the join program and
  // the cross-product program.
  auto src = RelationalSchemaBuilder()
                 .AddTable("Employee", {{"ename", PrimitiveType::kString},
                                        {"edept", PrimitiveType::kInt}})
                 .AddTable("Department", {{"did", PrimitiveType::kInt},
                                          {"dname", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  auto tgt = RelationalSchemaBuilder()
                 .AddTable("WorksIn", {{"w_name", PrimitiveType::kString},
                                       {"w_dept", PrimitiveType::kString}})
                 .Build()
                 .ValueOrDie();
  Example e;
  e.input.roots = {
      testing::FlatRecord("Employee",
                          {{"ename", Value::String("Alice")}, {"edept", Value::Int(11)}}),
      testing::FlatRecord("Department",
                          {{"did", Value::Int(11)}, {"dname", Value::String("CS")}})};
  e.output.roots = {testing::FlatRecord(
      "WorksIn", {{"w_name", Value::String("Alice")}, {"w_dept", Value::String("CS")}})};
  Synthesizer synth(src, tgt);
  ASSERT_OK_AND_ASSIGN(auto distinct, synth.SynthesizeDistinct(e, 3));
  EXPECT_GE(distinct.second.size(), 2u) << "expected ambiguity with a single-record example";
  EXPECT_EQ(distinct.second.front().ToString(), distinct.first.raw_program.ToString());
}

/// SynthesizeDistinct's result is Synthesize's, every field but the
/// wall-clock seconds: the alternatives run after the result is complete.
void ExpectDistinctFirstIsSynthesize(const Synthesizer& synth, const Example& e) {
  ASSERT_OK_AND_ASSIGN(SynthesisResult alone, synth.Synthesize(e));
  ASSERT_OK_AND_ASSIGN(auto distinct, synth.SynthesizeDistinct(e, 4));
  const SynthesisResult& first = distinct.first;
  EXPECT_EQ(first.program.ToString(), alone.program.ToString());
  EXPECT_EQ(first.raw_program.ToString(), alone.raw_program.ToString());
  EXPECT_EQ(first.iterations, alone.iterations);
  EXPECT_EQ(first.search_space, alone.search_space);
  ASSERT_EQ(first.rule_stats.size(), alone.rule_stats.size());
  for (size_t i = 0; i < alone.rule_stats.size(); ++i) {
    EXPECT_EQ(first.rule_stats[i].target_record, alone.rule_stats[i].target_record);
    EXPECT_EQ(first.rule_stats[i].search_space, alone.rule_stats[i].search_space);
    EXPECT_EQ(first.rule_stats[i].iterations, alone.rule_stats[i].iterations);
    EXPECT_EQ(first.rule_stats[i].body_predicates, alone.rule_stats[i].body_predicates);
  }
  ASSERT_FALSE(distinct.second.empty());
  EXPECT_EQ(distinct.second.front().ToString(), alone.raw_program.ToString());
}

TEST(SynthesizeDistinct, FirstIsSynthesizeResultOnMotivatingExample) {
  Synthesizer synth(testing::UnivSchema(), testing::AdmissionSchema());
  ExpectDistinctFirstIsSynthesize(synth, testing::MotivatingExample());
}

TEST(SynthesizeDistinct, FirstIsSynthesizeResultOnBenchmark) {
  const workload::Benchmark* bench = workload::FindBenchmark("MLB-1");
  ASSERT_NE(bench, nullptr);
  ASSERT_OK_AND_ASSIGN(Example e,
                       workload::MakeExample(*bench, bench->example_seed, bench->example_scale));
  Synthesizer synth(bench->source, bench->target);
  ExpectDistinctFirstIsSynthesize(synth, e);
}

// ------------------------------------------------- copy-count deepening --

/// Copies per leaf source record of a sketch's body.
SketchShape ShapeOf(const RuleSketch& sketch) {
  SketchShape shape;
  for (const auto& [leaf, holes] : sketch.chain_copies) ++shape[leaf];
  return shape;
}

/// The shapes SketchShapes visits for `record`, in order.
std::vector<SketchShape> VisitedShapes(const Schema& src, const Schema& tgt,
                                       const Example& e, const std::string& record) {
  AttributeMapping psi = InferAttrMapping(src, tgt, e).ValueOrDie();
  SketchShapes shapes =
      SketchShapes::Create(psi, src, tgt, record, AttributeValueSets(e.output, tgt))
          .ValueOrDie();
  std::vector<SketchShape> visited = {shapes.Current()};
  while (shapes.Advance()) visited.push_back(shapes.Current());
  return visited;
}

TEST(Deepening, SketchGenGivesBike1TheGoldenCopyCounts) {
  const workload::Benchmark& b = *workload::FindBenchmark("Bike-1");
  ASSERT_OK_AND_ASSIGN(Example e, workload::MakeExample(b, b.example_seed, b.example_scale));
  ASSERT_OK_AND_ASSIGN(AttributeMapping psi, InferAttrMapping(b.source, b.target, e));
  ASSERT_OK_AND_ASSIGN(std::vector<RuleSketch> sketches,
                       SketchGen(psi, b.source, b.target, AttributeValueSets(e.output, b.target)));
  ASSERT_EQ(sketches.size(), 1u);
  EXPECT_EQ(ShapeOf(sketches[0]), (SketchShape{{"stations", 1}, {"trips", 1}}));
  // The full sketch, which no option restores, is the last shape visited.
  ASSERT_OK_AND_ASSIGN(RuleSketch full, GenRuleSketch(psi, b.source, b.target, "StationDoc",
                                                      AttributeValueSets(e.output, b.target)));
  EXPECT_EQ(ShapeOf(full),
            (SketchShape{{"bikes", 1}, {"stations", 2}, {"trips", 2}, {"weather", 1}}));
  std::vector<SketchShape> visited = VisitedShapes(b.source, b.target, e, "StationDoc");
  EXPECT_EQ(visited.back(), ShapeOf(full));
  // Fewest copies first; equal totals in ascending lexicographic order of
  // the count vector over the records sorted by name.
  auto key = [&](const SketchShape& s) {
    std::vector<int> counts = {0};
    for (const auto& [rec, max] : ShapeOf(full)) {
      auto it = s.find(rec);
      counts.push_back(it == s.end() ? 0 : it->second);
      counts[0] += counts.back();
    }
    return counts;
  };
  for (size_t i = 1; i < visited.size(); ++i) {
    EXPECT_LT(key(visited[i - 1]), key(visited[i]));
  }
}

TEST(Deepening, MatchingRejectsAShapeWhereOneHoleFeedsTwoHeadAttributes) {
  // Tencent-1's FollowT takes both user names from TUser: with one TUser
  // copy, its single name hole would have to carry two head variables.
  const workload::Benchmark& b = *workload::FindBenchmark("Tencent-1");
  ASSERT_OK_AND_ASSIGN(Example e, workload::MakeExample(b, b.example_seed, b.example_scale));
  std::vector<SketchShape> visited = VisitedShapes(b.source, b.target, e, "FollowT");
  const SketchShape rejected = {{"TFollow", 1}, {"TUser", 1}};
  const SketchShape kept = {{"TFollow", 1}, {"TUser", 2}};
  EXPECT_EQ(std::count(visited.begin(), visited.end(), rejected), 0);
  EXPECT_EQ(visited.front(), kept);

  // Skipping it is exact: its encoding is unsatisfiable.
  ASSERT_OK_AND_ASSIGN(AttributeMapping psi, InferAttrMapping(b.source, b.target, e));
  ASSERT_OK_AND_ASSIGN(RuleSketch sketch,
                       GenRuleSketch(psi, b.source, b.target, "FollowT",
                                     AttributeValueSets(e.output, b.target), {}, &rejected));
  EXPECT_EQ(ShapeOf(sketch), rejected);
  FdSolver solver;
  ASSERT_OK(EncodeSketch(sketch, &solver).status());
  ASSERT_OK_AND_ASSIGN(bool sat, solver.Solve());
  EXPECT_FALSE(sat);
}

/// Emp(eid, ename, mgr) and Reports(worker, boss_id): boss_id is the id of
/// the worker's manager's manager, a self-join that one Emp copy cannot
/// express although its holes cover both head attributes.
struct GrandBossFixture {
  Schema src = RelationalSchemaBuilder()
                   .AddTable("Emp", {{"eid", PrimitiveType::kInt},
                                     {"ename", PrimitiveType::kString},
                                     {"mgr", PrimitiveType::kInt}})
                   .Build()
                   .ValueOrDie();
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("Reports", {{"worker", PrimitiveType::kString},
                                         {"boss_id", PrimitiveType::kInt}})
                   .Build()
                   .ValueOrDie();

  static RecordNode Emp(int id, const char* name, int mgr) {
    return testing::FlatRecord("Emp", {{"eid", Value::Int(id)},
                                       {"ename", Value::String(name)},
                                       {"mgr", Value::Int(mgr)}});
  }
  static RecordNode Reports(const char* worker, int boss) {
    return testing::FlatRecord(
        "Reports", {{"worker", Value::String(worker)}, {"boss_id", Value::Int(boss)}});
  }

  Example MakeExample() const {
    Example e;
    e.input.roots = {Emp(1, "ann", 1), Emp(2, "bob", 1), Emp(3, "cat", 2), Emp(4, "dan", 3)};
    e.output.roots = {Reports("ann", 1), Reports("bob", 1), Reports("cat", 1),
                      Reports("dan", 2)};
    return e;
  }
};

TEST(Deepening, ExhaustedSmallestShapeFallsThroughToALargerOne) {
  GrandBossFixture f;
  const Example e = f.MakeExample();
  std::vector<SketchShape> visited = VisitedShapes(f.src, f.tgt, e, "Reports");
  ASSERT_GT(visited.size(), 1u);
  EXPECT_EQ(visited.front(), (SketchShape{{"Emp", 1}}));

  Synthesizer synth(f.src, f.tgt);
  const uint64_t before = metrics::Snapshot().counter("synth.shapes_tried");
  ASSERT_OK_AND_ASSIGN(SynthesisResult result, synth.Synthesize(e));
  EXPECT_GE(metrics::Snapshot().counter("synth.shapes_tried") - before, 2u);
  ASSERT_EQ(result.program.rules.size(), 1u);
  EXPECT_EQ(result.program.rules[0].body.size(), 2u) << result.program.ToString();
  ASSERT_OK_AND_ASSIGN(Program golden,
                       Program::Parse("Reports(w, g) :- Emp(_, w, m), Emp(m, _, g)."));
  EXPECT_TRUE(RuleEquivalent(result.program.rules[0], golden.rules[0]))
      << result.program.ToString();
  // The reported space is the full sketch's, not the shape's.
  AttributeMapping psi = InferAttrMapping(f.src, f.tgt, e).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(RuleSketch full,
                       GenRuleSketch(psi, f.src, f.tgt, "Reports", {}));
  EXPECT_EQ(result.search_space, full.SearchSpaceSize());
}

TEST(Deepening, InconsistentExampleExhaustsEveryShape) {
  GrandBossFixture f;
  Example e = f.MakeExample();
  // No program of the full sketch gives bob boss 2 alongside the other
  // three rows, so every shape is searched to exhaustion.
  e.output.roots[1] = GrandBossFixture::Reports("bob", 2);
  const size_t shapes = VisitedShapes(f.src, f.tgt, e, "Reports").size();
  ASSERT_GT(shapes, 1u);

  Synthesizer synth(f.src, f.tgt);
  const uint64_t before = metrics::Snapshot().counter("synth.shapes_tried");
  auto result = synth.Synthesize(e);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSynthesisFailure);
  EXPECT_EQ(metrics::Snapshot().counter("synth.shapes_tried") - before, shapes);
}

// ---------------------------------------------------------- progress events --

/// Example 10's join (unambiguous two-employee variant): SynthesizeDistinct
/// still finds alternatives, so it re-enters the rule enumerator.
struct RelationalFixture {
  Schema src = RelationalSchemaBuilder()
                   .AddTable("Employee", {{"ename", PrimitiveType::kString},
                                          {"edept", PrimitiveType::kInt}})
                   .AddTable("Department", {{"did", PrimitiveType::kInt},
                                            {"dname", PrimitiveType::kString}})
                   .Build()
                   .ValueOrDie();
  Schema tgt = RelationalSchemaBuilder()
                   .AddTable("WorksIn", {{"w_name", PrimitiveType::kString},
                                         {"w_dept", PrimitiveType::kString}})
                   .Build()
                   .ValueOrDie();
  Program golden = Program::Parse(
                       "WorksIn(n, d) :- Employee(n, x), Department(x, d).")
                       .ValueOrDie();

  static RecordNode Emp(const char* n, int d) {
    return testing::FlatRecord(
        "Employee", {{"ename", Value::String(n)}, {"edept", Value::Int(d)}});
  }
  static RecordNode Dept(int i, const char* n) {
    return testing::FlatRecord("Department",
                               {{"did", Value::Int(i)}, {"dname", Value::String(n)}});
  }

  Example MakeExample() const {
    Example e;
    e.input.roots = {Emp("Alice", 11), Emp("Bob", 12), Dept(11, "CS"), Dept(12, "EE")};
    Migrator migrator(src, tgt);
    e.output = migrator.Migrate(golden, e.input).ValueOrDie();
    return e;
  }
};

/// An example whose output is unreachable and whose hole domains are
/// maximal (every column of every table stores the same value set), so
/// with analysis disabled the enumeration runs until its iteration budget.
struct AdversarialFixture {
  Schema src;
  Schema tgt;
  Example example;

  AdversarialFixture() {
    RelationalSchemaBuilder sb;
    for (int t = 0; t < 3; ++t) {
      std::vector<AttrDecl> cols;
      for (int c = 0; c < 3; ++c) {
        cols.push_back({"t" + std::to_string(t) + "c" + std::to_string(c),
                        PrimitiveType::kString});
      }
      sb.AddTable("T" + std::to_string(t), std::move(cols));
    }
    src = sb.Build().ValueOrDie();
    tgt = RelationalSchemaBuilder()
              .AddTable("Out", {{"o0", PrimitiveType::kString},
                                {"o1", PrimitiveType::kString},
                                {"o2", PrimitiveType::kString}})
              .Build()
              .ValueOrDie();
    for (int t = 0; t < 3; ++t) {
      for (int r = 0; r < 3; ++r) {
        std::vector<std::pair<std::string, Value>> prims;
        for (int c = 0; c < 3; ++c) {
          prims.push_back({"t" + std::to_string(t) + "c" + std::to_string(c),
                           Value::String("v_" + std::to_string(r))});
        }
        example.input.roots.push_back(
            testing::FlatRecord("T" + std::to_string(t), std::move(prims)));
      }
    }
    example.output.roots = {testing::FlatRecord("Out", {{"o0", Value::String("v_0")},
                                                        {"o1", Value::String("v_1")},
                                                        {"o2", Value::String("v_2")}})};
  }
};

TEST(SynthProgress, IterationsMonotoneAcrossRulesAndCoverageBounded) {
  // Document example: multiple target records, so the run crosses rule
  // boundaries (where done_iterations folds in completed rules).
  Synthesizer synth(testing::UnivSchema(), testing::AdmissionSchema());
  std::vector<ProgressEvent> events;
  RunContext ctx;
  ctx.observer = [&](const ProgressEvent& e) { events.push_back(e); };
  ASSERT_OK(synth.Synthesize(testing::MotivatingExample(), ctx).status());
  ASSERT_FALSE(events.empty());
  size_t last = 0;
  for (const ProgressEvent& e : events) {
    EXPECT_GE(e.iterations, last);
    last = e.iterations;
    EXPECT_GE(e.coverage, 0.0);
    EXPECT_LE(e.coverage, 1.0);
  }
}

TEST(SynthProgress, SingleRuleCoverageMonotone) {
  // One target table = one rule = fixed search space: coverage (not just
  // iterations) must be non-decreasing. Enum mode makes the run long
  // enough to emit several kSearch events (stride 64).
  AdversarialFixture fixture;
  SynthesisOptions options;
  options.use_analysis = false;
  options.use_mdp = false;
  options.max_iterations = 300;  // a few stride-64 batches, then kEvalBudget
  Synthesizer synth(fixture.src, fixture.tgt, options);
  std::vector<ProgressEvent> events;
  RunContext ctx;
  ctx.observer = [&](const ProgressEvent& e) { events.push_back(e); };
  auto result = synth.Synthesize(fixture.example, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kEvalBudget);

  size_t search_events = 0;
  size_t last_iterations = 0;
  double last_coverage = 0;
  for (const ProgressEvent& e : events) {
    EXPECT_GE(e.iterations, last_iterations);
    last_iterations = e.iterations;
    if (e.phase == Phase::kSearch) {
      ++search_events;
      EXPECT_GE(e.coverage, last_coverage);
      last_coverage = e.coverage;
    }
  }
  EXPECT_GT(search_events, 2u);
}

TEST(SynthProgress, DistinctEnumerationKeepsIterationsMonotone) {
  // SynthesizeDistinct re-enters per-rule enumerators after every rule has
  // run; each report counts the other enumerators' iterations plus the
  // re-entered one's, so observed totals never decrease.
  RelationalFixture fixture;
  Synthesizer synth(fixture.src, fixture.tgt);
  std::vector<ProgressEvent> events;
  RunContext ctx;
  ctx.observer = [&](const ProgressEvent& e) { events.push_back(e); };
  ASSERT_OK(synth.SynthesizeDistinct(fixture.MakeExample(), 3, ctx).status());
  size_t last = 0;
  for (const ProgressEvent& e : events) {
    EXPECT_GE(e.iterations, last);
    last = e.iterations;
  }
}

}  // namespace
}  // namespace dynamite
