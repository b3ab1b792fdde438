// The repository benchmark's measuring program (run it through run.py,
// which builds it and records the host).
//
//   perfbench_driver --workload table3|bulk --seed N --seconds S --trace 0|1
//                    [--smoke] [--corrupt-reference]
//   perfbench_driver --spin-test
//
// Both workloads are one closed-loop client on one thread issuing one
// Session call at a time; see README.md for what each measures and why.
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// runs the same Session calls once more, replays them through the layers'
// public functions (replay.h), checks that the replay reproduced Session's
// iterations, programs and outputs, and prints the per-layer metrics.
//
// Output: one JSON row per scenario, one JSON record of the run's settings,
// and, last, the result object {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/session.h"
#include "datalog/simplify.h"
#include "migrate/facts.h"
#include "reference.h"
#include "replay.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ settings ---

/// Synthesis of this scenario is solver-bound (about 16k SAT-guided
/// iterations, most of table3's time). table3 runs it; bulk, whose subject
/// is the data plane, and the smoke mode leave its synthesis out.
constexpr const char* kSolverBoundScenario = "Bike-1";

/// How often a call is repeated. The class is declared per scenario and
/// workload, never derived from a measured time, so every run makes the
/// same calls:
///   kShort (at most about 0.2 s): every pass, timed calls after warm-ups;
///   kLong (the solver-bound syntheses, Bike-1's at 20-45 s and Retina-2's
///     at about 1 s; table3's Patent-2 migration, about 5 s): pass 0 only.
/// A long call is made once per run, so its time is one moment of the VM's
/// speed, which drifts by up to a factor of two between runs. It is checked
/// and counted like every call and its time is printed in its scenario's
/// row and traced in the per-layer run, but it does not enter the timing
/// metrics: one sample per run cannot hold their bounds, and Retina-2's
/// synthesis, timed 16 times a run, still spread 0.15 over ten runs (each
/// call's time moves with the host in its own way) while taking a fifth
/// of the run.
enum class CallClass { kShort, kLong };

struct WorkloadSpec {
  size_t migration_scale;  ///< primary entities per migration source
  /// Migrate the golden program (else the synthesized one).
  bool migrate_golden;
  bool synthesize_solver_bound;
  size_t min_passes;  ///< passes per run, whatever --seconds says
  size_t migrate_reps;  ///< timed calls per pass of a short migration
  std::vector<std::string> long_syntheses;
  std::vector<std::string> long_migrations;
};

/// The VM's speed drifts by a factor of two within seconds, and calls made
/// back to back in one process share their moment's speed (a migration
/// read 58 ms in one pass's process and 108 ms in the next). So a call's
/// samples are spread over many passes, a few per pass: a short synthesis
/// is timed kSynthRepsPerPass times a pass.
constexpr size_t kSynthRepsPerPass = 2;
/// In a freshly forked measuring process the first calls run up to five
/// times slower (copy-on-write faults, cold caches), which a long-lived
/// client would not see. So each process leads a short call's timed calls
/// with this many warm-up calls, which are made and checked like the
/// others but not timed into the metrics.
constexpr size_t kSynthWarmups = 2;
constexpr size_t kMigrateWarmups = 1;
/// Held-out instance size for bulk's golden-agreement check (the
/// synthesized programs are not what bulk migrates at scale).
constexpr size_t kHeldOutScale = 50;

/// table3 makes 8 passes: 16 timed calls of each short synthesis, 24 of
/// each short migration. bulk makes at least 4 passes of 28 migrations,
/// each timed twice a pass; its syntheses are there because every workload
/// prints every end-to-end metric.
WorkloadSpec SpecFor(const std::string& workload, bool smoke) {
  if (workload == "table3") {
    return {smoke ? 20u : 500u, false, !smoke, 8, 3, {kSolverBoundScenario, "Retina-2"},
            {"Patent-2"}};
  }
  return {smoke ? 200u : 5000u, true, false, 4, 2, {"Retina-2"}, {}};
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

CallClass SynthClass(const WorkloadSpec& spec, const std::string& name) {
  return Contains(spec.long_syntheses, name) ? CallClass::kLong : CallClass::kShort;
}

CallClass MigrateClass(const WorkloadSpec& spec, const std::string& name) {
  return Contains(spec.long_migrations, name) ? CallClass::kLong : CallClass::kShort;
}

/// Timed calls of class `c` in pass `pass`.
size_t RepsInPass(CallClass c, size_t pass, size_t short_reps) {
  if (c == CallClass::kShort) return short_reps;
  return pass == 0 ? 1 : 0;
}

/// The host-speed probe. The VM shares its host with other tenants, and for
/// minutes at a time every call reads 30-100% slower than in the minutes
/// before: a set of runs that straddles such a change spreads by that much
/// whatever each run measures. The probe is a fixed workload of the
/// benchmark's own, run in the driver between measuring processes, with the
/// two kinds of work the program does: a memory-bound part (hash-map
/// inserts and lookups over about 4 MiB, then a sort of 1.2 MiB) and an
/// arithmetic part, about 30 and 16 ms on an uncontended guest. The
/// memory-bound part slows down with the program's calls: over four minutes
/// in which Retina-2's synthesis went from 1.42 to 0.71 s and a 500-entity
/// migration from 106 to 52 ms, it went from 53 to 29 ms. The arithmetic
/// part moves far less (13% there), and so does the data plane of bulk's
/// large migrations at times when the memory-bound part alone moves 20%.
/// So every end-to-end timing is reported at the reference speed: scaled by
/// kProbeReferenceSeconds over the median probe time of the run. The run
/// record keeps the unscaled values.
constexpr double kProbeReferenceSeconds = 0.046;
/// One probe before every kProbeEvery-th measuring process: about 7 probes
/// a pass, spread over the run like the calls.
constexpr size_t kProbeEvery = 4;

uint64_t probe_sink = 0;

double SpeedProbeSeconds() {
  Clock::time_point start = Clock::now();
  uint64_t x = 7;
  auto next = [&x] { return x = x * 6364136223846793005ULL + 1442695040888963407ULL; };
  std::unordered_map<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 100000; ++i) map[next() >> 20] += i;
  uint64_t hits = 0;
  for (int i = 0; i < 200000; ++i) {
    auto it = map.find(next() >> 20);
    if (it != map.end()) hits += it->second;
  }
  std::vector<double> values(150000);
  for (double& v : values) v = static_cast<double>(next() >> 11);
  std::sort(values.begin(), values.end());
  uint64_t y = 1;
  for (uint64_t i = 0; i < 10000000; ++i) y = y * 6364136223846793005ULL + i;
  probe_sink += hits + static_cast<uint64_t>(values[values.size() / 2]) + y;
  return SecondsSince(start);
}

/// Migration sources are drawn from this seed, never from a scenario's
/// curated example seed (all below 1000), so each migration is held out.
uint64_t MigrationSeed(uint64_t seed) { return 1000 + seed; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  bool corrupt_reference = false;
  bool spin_test = false;
  std::string program_dir = ".";  ///< where the traced run writes its trace
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::string program = argv[0];
  if (program.find('/') != std::string::npos) {
    args->program_dir = program.substr(0, program.rfind('/'));
  }
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--workload" && (v = next())) {
      args->workload = v;
    } else if (a == "--seed" && (v = next())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      args->seconds = std::atof(v);
    } else if (a == "--trace" && (v = next())) {
      args->trace = std::atoi(v);
    } else if (a == "--smoke") {
      args->smoke = true;
    } else if (a == "--corrupt-reference") {
      args->corrupt_reference = true;
    } else if (a == "--spin-test") {
      args->spin_test = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", a.c_str());
      return false;
    }
  }
  if (args->spin_test) return true;
  if (args->workload != "table3" && args->workload != "bulk") {
    std::fprintf(stderr, "--workload must be table3 or bulk\n");
    return false;
  }
  return args->trace == 0 || args->trace == 1;
}

// ---------------------------------------------------------------- JSON ---

class Json {
 public:
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) < 0x20) c = ' ';
      out_ += c;
    }
    out_ += '"';
    return *this;
  }
  Json& Num(const char* key, double v) {
    Key(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
    return *this;
  }
  /// Numbers with 6 significant digits (per-call samples).
  Json& Nums(const char* key, const std::vector<double>& v) {
    Key(key);
    out_ += '[';
    for (size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), i ? ", %.6g" : "%.6g", v[i]);
      out_ += buf;
    }
    out_ += ']';
    return *this;
  }
  Json& Int(const char* key, uint64_t v) {
    Key(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& Bool(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Raw(const char* key, const std::string& json) {
    Key(key);
    out_ += json;
    return *this;
  }
  std::string Done() const { return out_ + "}"; }

 private:
  void Key(const char* key) {
    out_ += out_.size() > 1 ? ", \"" : "\"";
    out_ += key;
    out_ += "\": ";
  }
  std::string out_ = "{";
};

// ----------------------------------------------------------- scenarios ---

struct Scenario {
  const workload::Benchmark* bench = nullptr;
  bool synthesize = false;
};

/// A scenario's generated inputs: the set-up before its first timed call.
struct Inputs {
  Example example;  ///< empty when the scenario is not synthesized
  RecordForest source;
};

Result<Inputs> MakeInputs(const Scenario& s, const WorkloadSpec& spec, uint64_t seed) {
  const workload::Benchmark& b = *s.bench;
  Inputs in;
  if (s.synthesize) {
    DYNAMITE_ASSIGN_OR_RETURN(in.example,
                              workload::MakeExample(b, b.example_seed, b.example_scale));
  }
  DYNAMITE_ASSIGN_OR_RETURN(
      in.source, workload::GenerateSource(b, MigrationSeed(seed), spec.migration_scale));
  return in;
}

/// Per-scenario results of one pass.
struct ScenarioPass {
  double setup_seconds = 0;  ///< MakeInputs in the measuring process
  std::vector<double> synth_seconds;  ///< one per Synthesize call
  std::string synth_error;
  size_t iterations = 0;
  Program program;  ///< synthesized (simplified) program of the first call
  std::vector<double> migrate_seconds;  ///< one per Migrate call
  std::string migrate_error;
  size_t source_records = 0;
  uint64_t output_digest = 0;  ///< of the first call's output
  bool repeatable = true;      ///< every call reproduced the first's result
  /// Leading warm-up calls in synth_seconds and migrate_seconds.
  size_t synth_warmups = 0;
  size_t migrate_warmups = 0;

  bool synth_attempted() const { return !synth_seconds.empty(); }
  bool migrate_attempted() const { return !migrate_seconds.empty(); }
  std::vector<double> SynthSamples() const { return After(synth_seconds, synth_warmups); }
  std::vector<double> MigrateSamples() const { return After(migrate_seconds, migrate_warmups); }

 private:
  static std::vector<double> After(const std::vector<double>& v, size_t n) {
    return {v.begin() + static_cast<std::ptrdiff_t>(std::min(n, v.size())), v.end()};
  }
};

std::string ErrorOf(const Status& st) {
  return std::string(StatusCodeToString(st.code())) + ": " + st.message();
}

std::vector<Scenario> Scenarios(const WorkloadSpec& spec) {
  std::vector<Scenario> out;
  for (const workload::Benchmark& b : workload::AllBenchmarks()) {
    out.push_back({&b, b.name != kSolverBoundScenario || spec.synthesize_solver_bound});
  }
  return out;
}

/// The calls of one scenario in one pass: warm-up and timed calls of each
/// kind, and the program to migrate (null: the one just synthesized).
struct CallPlan {
  size_t synth_warmups = 0;
  size_t synth_reps = 0;
  size_t migrate_warmups = 0;
  size_t migrate_reps = 0;
  const Program* program = nullptr;
};

/// Runs one scenario's calls for a pass, each call on a fresh Session.
ScenarioPass RunScenario(const Scenario& s, const Inputs& in, const CallPlan& plan) {
  ScenarioPass r;
  r.synth_warmups = plan.synth_reps > 0 ? plan.synth_warmups : 0;
  r.migrate_warmups = plan.migrate_reps > 0 ? plan.migrate_warmups : 0;
  for (size_t i = 0; i < r.synth_warmups + plan.synth_reps && r.synth_error.empty(); ++i) {
    auto session = Session::Create(s.bench->source, s.bench->target);
    if (!session.ok()) {
      r.synth_seconds.push_back(0);
      r.synth_error = ErrorOf(session.status());
      break;
    }
    Clock::time_point start = Clock::now();
    auto synth = session->Synthesize(in.example);
    r.synth_seconds.push_back(SecondsSince(start));
    if (!synth.ok()) {
      r.synth_error = ErrorOf(synth.status());
    } else if (i == 0) {
      r.iterations = synth->iterations;
      r.program = synth->program;
    } else if (synth->iterations != r.iterations ||
               synth->program.ToString() != r.program.ToString()) {
      r.repeatable = false;
    }
  }
  const Program* program = plan.program;
  if (program == nullptr) {
    if (!r.synth_attempted() || !r.synth_error.empty()) return r;
    program = &r.program;
  }
  if (plan.migrate_reps > 0) r.source_records = in.source.TotalRecords();
  for (size_t i = 0; i < r.migrate_warmups + plan.migrate_reps && r.migrate_error.empty(); ++i) {
    auto session = Session::Create(s.bench->source, s.bench->target);
    if (!session.ok()) {
      r.migrate_seconds.push_back(0);
      r.migrate_error = ErrorOf(session.status());
      break;
    }
    Clock::time_point start = Clock::now();
    auto migrated = session->Migrate(*program, in.source);
    r.migrate_seconds.push_back(SecondsSince(start));
    if (!migrated.ok()) {
      r.migrate_error = ErrorOf(migrated.status());
      break;
    }
    uint64_t digest = ForestDigest(*migrated);
    if (i == 0) {
      r.output_digest = digest;
    } else if (digest != r.output_digest) {
      r.repeatable = false;
    }
  }
  return r;
}

// ScenarioPass over a pipe: the fields in declaration order, the program as
// its text.
void Put(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}
void PutU64(std::string* out, uint64_t v) { Put(out, &v, sizeof(v)); }
void PutString(std::string* out, const std::string& v) {
  PutU64(out, v.size());
  out->append(v);
}
void PutTimes(std::string* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  Put(out, v.data(), v.size() * sizeof(double));
}

std::string Serialize(const ScenarioPass& r) {
  std::string out;
  Put(&out, &r.setup_seconds, sizeof(r.setup_seconds));
  PutTimes(&out, r.synth_seconds);
  PutString(&out, r.synth_error);
  PutU64(&out, r.iterations);
  PutString(&out, r.synth_attempted() && r.synth_error.empty() ? r.program.ToString() : "");
  PutTimes(&out, r.migrate_seconds);
  PutString(&out, r.migrate_error);
  PutU64(&out, r.source_records);
  PutU64(&out, r.output_digest);
  PutU64(&out, r.repeatable ? 1 : 0);
  PutU64(&out, r.synth_warmups);
  PutU64(&out, r.migrate_warmups);
  return out;
}

class Reader {
 public:
  explicit Reader(const std::string& in) : in_(in) {}
  bool Get(void* data, size_t n) {
    if (pos_ + n > in_.size()) return false;
    std::memcpy(data, in_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  bool U64(uint64_t* v) { return Get(v, sizeof(*v)); }
  bool String(std::string* v) {
    uint64_t n = 0;
    if (!U64(&n) || n > in_.size() - pos_) return false;
    v->assign(in_, pos_, n);
    pos_ += n;
    return true;
  }
  bool Times(std::vector<double>* v) {
    uint64_t n = 0;
    if (!U64(&n) || n > (in_.size() - pos_) / sizeof(double)) return false;
    v->resize(n);
    return Get(v->data(), n * sizeof(double));
  }
  bool AtEnd() const { return pos_ == in_.size(); }

 private:
  const std::string& in_;
  size_t pos_ = 0;
};

Status Deserialize(const std::string& in, ScenarioPass* r) {
  Reader rd(in);
  uint64_t iterations = 0, source_records = 0, repeatable = 0, synth_warmups = 0,
           migrate_warmups = 0;
  std::string program;
  if (!rd.Get(&r->setup_seconds, sizeof(r->setup_seconds)) || !rd.Times(&r->synth_seconds) ||
      !rd.String(&r->synth_error) || !rd.U64(&iterations) ||
      !rd.String(&program) || !rd.Times(&r->migrate_seconds) ||
      !rd.String(&r->migrate_error) || !rd.U64(&source_records) ||
      !rd.U64(&r->output_digest) || !rd.U64(&repeatable) || !rd.U64(&synth_warmups) ||
      !rd.U64(&migrate_warmups) || !rd.AtEnd()) {
    return Status::Internal("malformed scenario result from the measuring process");
  }
  r->iterations = iterations;
  r->source_records = source_records;
  r->repeatable = repeatable != 0;
  r->synth_warmups = synth_warmups;
  r->migrate_warmups = migrate_warmups;
  if (!program.empty()) {
    DYNAMITE_ASSIGN_OR_RETURN(r->program, Program::Parse(program));
    if (r->program.ToString() != program) {
      return Status::Internal("synthesized program does not survive its text form");
    }
  }
  return Status::OK();
}

/// Generates a scenario's inputs and runs its calls for a pass in a child
/// process forked from a small parent, so every scenario starts from the
/// same heap: a scenario that leaves a large, fragmented heap behind
/// (Bike-1's 3 M-clause solver) cannot slow the scenarios after it, the
/// per-process luck of memory layout averages out over many processes,
/// and the child's peak memory is that of one scenario's inputs and calls.
Result<ScenarioPass> RunScenarioIsolated(const Scenario& s, const CallPlan& plan,
                                         const WorkloadSpec& spec, uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    Clock::time_point start = Clock::now();
    auto inputs = MakeInputs(s, spec, seed);
    const double setup_seconds = SecondsSince(start);
    if (!inputs.ok()) {
      std::fprintf(stderr, "set-up of %s failed: %s\n", s.bench->name.c_str(),
                   inputs.status().ToString().c_str());
      _exit(1);
    }
    ScenarioPass r = RunScenario(s, *inputs, plan);
    r.setup_seconds = setup_seconds;
    std::string out = Serialize(r);
    size_t done = 0;
    while (done < out.size()) {
      ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string in;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    in.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("measuring process for " + s.bench->name + " failed");
  }
  ScenarioPass r;
  DYNAMITE_RETURN_NOT_OK(Deserialize(in, &r));
  return r;
}

/// The calls of scenario `i` in pass `pass`, after the passes in `done`.
/// Later passes migrate pass 0's program. The traced run makes one call of
/// each kind, without warm-ups.
CallPlan PlanFor(const Scenario& s, size_t i, const WorkloadSpec& spec,
                 const std::vector<std::vector<ScenarioPass>>& done, bool traced) {
  const size_t pass = done.size();
  const std::string& name = s.bench->name;
  CallPlan plan;
  if (s.synthesize && (pass == 0 || done[0][i].synth_error.empty())) {
    CallClass c = SynthClass(spec, name);
    plan.synth_reps = traced ? 1 : RepsInPass(c, pass, kSynthRepsPerPass);
    plan.synth_warmups = !traced && c == CallClass::kShort ? kSynthWarmups : 0;
  }
  if (spec.migrate_golden) plan.program = &s.bench->golden;
  const CallClass m = MigrateClass(spec, name);
  if (pass == 0) {
    plan.migrate_reps = traced ? 1 : RepsInPass(m, pass, spec.migrate_reps);
  } else if (done[0][i].migrate_attempted() && done[0][i].migrate_error.empty()) {
    plan.migrate_reps = RepsInPass(m, pass, spec.migrate_reps);
    if (!spec.migrate_golden) plan.program = &done[0][i].program;
  }
  if (!traced && m == CallClass::kShort) plan.migrate_warmups = kMigrateWarmups;
  return plan;
}

/// One timed pass over every scenario, in Table 2 order, each scenario in
/// its own measuring process (which also generates its inputs, so every
/// pass repeats the set-up once). Appends the pass's speed probes to
/// `probes`.
Result<std::vector<ScenarioPass>> RunPass(const std::vector<Scenario>& scenarios,
                                          const WorkloadSpec& spec, uint64_t seed,
                                          const std::vector<std::vector<ScenarioPass>>& done,
                                          std::vector<double>* probes) {
  std::vector<ScenarioPass> out;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (i % kProbeEvery == 0) probes->push_back(SpeedProbeSeconds());
    CallPlan plan = PlanFor(scenarios[i], i, spec, done, /*traced=*/false);
    DYNAMITE_ASSIGN_OR_RETURN(ScenarioPass r, RunScenarioIsolated(scenarios[i], plan, spec, seed));
    out.push_back(std::move(r));
  }
  return out;
}

// -------------------------------------------------------------- checks ---

/// Untimed correctness references for one scenario.
struct ScenarioCheck {
  bool example_ok = false;      ///< the synthesized program reproduces its example
  bool golden_agree = false;    ///< synthesized program == golden on a held-out instance
  bool output_ok = false;       ///< migration output == independent evaluator's reference
  /// The engine's output for the golden program == the independent
  /// evaluator's (table3, which migrates synthesized programs; in bulk
  /// output_ok is this check).
  bool engine_ok = false;
  size_t optimal_rules = 0;
  int dist_optimal = 0;
  std::string error;
};

/// Output digest of the golden program on `source` under the independent
/// evaluator; `corrupt` drops the last rule of a multi-rule golden program
/// (a deliberately wrong reference, which the checks must catch).
Result<uint64_t> ReferenceDigest(const workload::Benchmark& b, const RecordForest& source,
                                 bool corrupt) {
  uint64_t next_id = 1;
  DYNAMITE_ASSIGN_OR_RETURN(FactDatabase edb, ToFacts(source, b.source, &next_id));
  Program program = b.golden;
  if (corrupt && program.rules.size() > 1) program.rules.pop_back();
  DYNAMITE_ASSIGN_OR_RETURN(FactDatabase idb,
                            EvaluateConjunctive(program, edb, FactSignatures(b.target)));
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest forest, BuildForest(idb, b.target));
  return ForestDigest(forest);
}

/// Synthesized-vs-golden rule quality, as bench_table3_main reports it.
void RuleQuality(const Program& program, const Program& golden, ScenarioCheck* check) {
  Program golden_simplified = SimplifyProgram(golden);
  for (const Rule& rule : program.rules) {
    const Rule* golden_rule = nullptr;
    for (const Rule& g : golden_simplified.rules) {
      if (!g.heads.empty() && !rule.heads.empty() &&
          g.heads[0].relation == rule.heads[0].relation) {
        golden_rule = &g;
      }
    }
    if (golden_rule == nullptr) continue;
    if (rule.body.size() == golden_rule->body.size() && RuleIsomorphic(rule, *golden_rule)) {
      ++check->optimal_rules;
    }
    check->dist_optimal += DistanceToOptimal(rule, *golden_rule);
  }
}

ScenarioCheck CheckScenario(const Scenario& s, const Inputs& in, const ScenarioPass& first,
                            const WorkloadSpec& spec, uint64_t seed, bool corrupt) {
  ScenarioCheck c;
  const workload::Benchmark& b = *s.bench;
  auto fail = [&c](const Status& st) { c.error = ErrorOf(st); };
  auto session = Session::Create(b.source, b.target);
  if (!session.ok()) {
    fail(session.status());
    return c;
  }
  if (first.synth_attempted() && first.synth_error.empty()) {
    auto replayed = session->Migrate(first.program, in.example.input);
    c.example_ok = replayed.ok() && ForestEquals(*replayed, in.example.output);
    RuleQuality(first.program, b.golden, &c);
    if (spec.migrate_golden) {
      auto agree = workload::AgreesWithGolden(b, first.program, MigrationSeed(seed),
                                              kHeldOutScale);
      if (agree.ok()) {
        c.golden_agree = *agree;
      } else {
        fail(agree.status());
      }
    }
  }
  if (!first.migrate_attempted() || !first.migrate_error.empty()) return c;
  auto reference = ReferenceDigest(b, in.source, corrupt);
  if (!reference.ok()) {
    fail(reference.status());
    return c;
  }
  c.output_ok = *reference == first.output_digest;
  if (spec.migrate_golden) {
    c.engine_ok = c.output_ok;
  } else {
    auto golden = session->Migrate(b.golden, in.source);
    if (!golden.ok()) {
      fail(golden.status());
      return c;
    }
    uint64_t golden_digest = ForestDigest(*golden);
    c.golden_agree = golden_digest == first.output_digest;
    c.engine_ok = golden_digest == *reference;
  }
  return c;
}

// --------------------------------------------------------------- stats ---

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Continued fraction of the incomplete beta function (modified Lentz).
double BetaFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1, d = 1 / guard(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 500; ++m) {
    double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1 + m2) * (a + m2));
    d = 1 / guard(1 + aa * d);
    c = guard(1 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2));
    d = 1 / guard(1 + aa * d);
    c = guard(1 + aa / c);
    h *= d * c;
    if (std::fabs(d * c - 1) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                          a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) return front * BetaFraction(a, b, x) / a;
  return 1 - front * BetaFraction(b, a, 1 - x) / b;
}

/// Harrell-Davis estimate of the q-quantile: a Beta-weighted average of
/// all order statistics. Where calls cluster by scenario, a plain order
/// statistic jumps between clusters from run to run; this one moves
/// smoothly.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1), b = (1 - q) * (n + 1);
  double sum = 0, prev = 0;
  for (size_t i = 1; i <= v.size(); ++i) {
    double cur = IncompleteBeta(a, b, static_cast<double>(i) / n);
    sum += (cur - prev) * v[i - 1];
    prev = cur;
  }
  return sum;
}

/// Peak resident memory of the largest measuring process: one scenario's
/// inputs and calls (ru_maxrss is KiB on Linux). The driver's own checks
/// and bookkeeping are not counted.
double PeakRssMiB() {
  struct rusage children;
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;
}

std::vector<double> Scaled(std::vector<double> v, double factor) {
  for (double& x : v) x *= factor;
  return v;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  Json all;
  for (const Metric& m : metrics) {
    all.Raw(m.name.c_str(), Json().Num("value", m.value).Str("unit", m.unit).Done());
  }
  return all.Done();
}

// -------------------------------------------------------- traced replay ---

struct ReplayOutcome {
  LayerProfile profile;
  std::vector<std::string> mismatches;
};

ReplayOutcome Replay(const std::vector<Scenario>& scenarios, const std::vector<Inputs>& inputs,
                     const std::vector<ScenarioPass>& session_pass, const WorkloadSpec& spec) {
  ReplayOutcome out;
  const SynthesisOptions options = SessionOptions().synthesis;
  uint64_t solves_before = metrics::Snapshot().counter("solver.solves");
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    const ScenarioPass& ref = session_pass[i];
    const std::string& name = s.bench->name;
    RunContext ctx = RunContext::WithTimeout(SessionOptions().default_budget_seconds);
    Program synthesized;
    if (s.synthesize) {
      auto synth = ReplaySynthesize(s.bench->source, s.bench->target, inputs[i].example,
                                    options, ctx, &out.profile);
      if (!synth.ok()) {
        if (ErrorOf(synth.status()) != ref.synth_error) {
          out.mismatches.push_back(name + ": synthesis status " + ErrorOf(synth.status()));
        }
        continue;
      }
      if (!ref.synth_error.empty()) {
        out.mismatches.push_back(name + ": replay synthesized, Session failed");
      }
      if (synth->iterations != ref.iterations) {
        out.mismatches.push_back(name + ": iterations " + std::to_string(synth->iterations) +
                                 " vs Session " + std::to_string(ref.iterations));
      }
      if (synth->program.ToString() != ref.program.ToString()) {
        out.mismatches.push_back(name + ": simplified program differs from Session's");
      }
      synthesized = std::move(synth->program);
    }
    if (!ref.migrate_attempted()) continue;
    const Program& program = spec.migrate_golden ? s.bench->golden : synthesized;
    auto migrated = ReplayMigrate(s.bench->source, s.bench->target, program, inputs[i].source,
                                  ctx, &out.profile);
    if (!migrated.ok()) {
      out.mismatches.push_back(name + ": migration status " + ErrorOf(migrated.status()));
    } else if (ForestDigest(*migrated) != ref.output_digest) {
      out.mismatches.push_back(name + ": migrated output differs from Session's");
    }
  }
  // The program's own counter must have seen exactly the replayed solves.
  uint64_t counted = metrics::Snapshot().counter("solver.solves") - solves_before;
  if (counted != out.profile.solves) {
    out.mismatches.push_back("solver.solves counter " + std::to_string(counted) +
                             " vs replayed solves " + std::to_string(out.profile.solves));
  }
  return out;
}

std::vector<Metric> PerLayerMetrics(const LayerProfile& p, double session_wall_seconds) {
  auto s = [&p](Bucket b) { return p.Seconds(b); };
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"solver.solve_s", s(Bucket::kSolverSolve), "s"},
      {"solver.lower_s", s(Bucket::kSolverLower), "s"},
      {"solver.solves", n(p.solves), "count"},
      {"solver.clauses", n(p.peak_clauses), "count"},
      {"solver.vars", n(p.fd_vars), "count"},
      {"solver.conflicts", n(p.conflicts), "count"},
      {"solver.solve_growth_ratio",
       Ratio(p.last_decile_solve_seconds, p.first_decile_solve_seconds), "ratio"},
      {"synth.instantiate_s", s(Bucket::kSynthInstantiate), "s"},
      {"synth.analyze_s", s(Bucket::kSynthAnalyze), "s"},
      {"synth.iterations", n(p.iterations), "count"},
      {"synth.hit_ratio", Ratio(n(p.rules_found), n(p.candidate_evals)), "ratio"},
      {"synth.prepare_s", s(Bucket::kSynthPrepare), "s"},
      {"synth.encode_s", s(Bucket::kSynthEncode), "s"},
      {"synth.sketch_holes", n(p.sketch_holes), "count"},
      {"datalog.candidate_eval_s", s(Bucket::kCandidateEval), "s"},
      {"datalog.candidate_evals", n(p.candidate_evals), "count"},
      {"migrate.candidate_check_s", s(Bucket::kCandidateCheck), "s"},
      {"datalog.migrate_eval_s", s(Bucket::kMigrateEval), "s"},
      {"datalog.target_facts", n(p.target_facts), "count"},
      {"migrate.to_facts_s", s(Bucket::kToFacts), "s"},
      {"migrate.build_s", s(Bucket::kBuild), "s"},
      {"migrate.source_records", n(p.source_records), "count"},
      {"migrate.source_facts", n(p.source_facts), "count"},
      {"migrate.target_records", n(p.target_records), "count"},
      {"datalog.simplify_s", s(Bucket::kSimplify), "s"},
      {"api.unattributed_ratio",
       Ratio(p.replay_wall_seconds - p.CoveredSeconds(), p.replay_wall_seconds), "ratio"},
      {"trace.overhead_ratio", Ratio(p.replay_wall_seconds, session_wall_seconds), "ratio"},
  };
}

// ----------------------------------------------------------------- run ---

int SpinTest() {
  // Effective parallelism: n threads spinning the same fixed work, against
  // one thread alone. 1.0 per core that really runs in parallel.
  auto spin = [] {
    volatile uint64_t x = 0;
    for (uint64_t i = 0; i < 100'000'000ULL; ++i) x = x + i;
  };
  unsigned n = std::max(1u, std::thread::hardware_concurrency());
  Clock::time_point start = Clock::now();
  spin();
  double single = SecondsSince(start);
  start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(spin);
  for (std::thread& t : threads) t.join();
  double parallel = SecondsSince(start);
  std::printf("%s\n", Json()
                          .Int("nproc", n)
                          .Num("effective_parallelism", n * single / parallel)
                          .Done()
                          .c_str());
  return 0;
}

int Run(const Args& args) {
  const WorkloadSpec spec = SpecFor(args.workload, args.smoke);
  const bool traced = args.trace == 1;

  const std::vector<Scenario> scenarios = Scenarios(spec);

  // The traced run generates every input here and makes one call of each
  // kind per scenario in this process, where it then replays the same
  // calls: it needs Session's results and wall time, not a steady latency.
  std::vector<Inputs> traced_inputs;
  for (size_t i = 0; traced && i < scenarios.size(); ++i) {
    auto in = MakeInputs(scenarios[i], spec, args.seed);
    if (!in.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", in.status().ToString().c_str());
      return 1;
    }
    traced_inputs.push_back(std::move(in).ValueOrDie());
  }

  // Timed passes, at least min_passes and until --seconds have passed.
  std::vector<std::vector<ScenarioPass>> passes;
  std::vector<double> probes;
  Clock::time_point measure_start = Clock::now();
  if (traced) {
    std::vector<ScenarioPass> pass;
    for (size_t i = 0; i < scenarios.size(); ++i) {
      CallPlan plan = PlanFor(scenarios[i], i, spec, passes, /*traced=*/true);
      pass.push_back(RunScenario(scenarios[i], traced_inputs[i], plan));
    }
    passes.push_back(std::move(pass));
  }
  while (!traced &&
         (passes.size() < spec.min_passes || SecondsSince(measure_start) < args.seconds)) {
    auto pass = RunPass(scenarios, spec, args.seed, passes, &probes);
    if (!pass.ok()) {
      std::fprintf(stderr, "pass failed: %s\n", pass.status().ToString().c_str());
      return 1;
    }
    passes.push_back(std::move(pass).ValueOrDie());
  }
  const double measured_seconds = SecondsSince(measure_start);
  // setup_s: each pass generates every scenario's inputs once.
  std::vector<double> setup_times;
  for (const std::vector<ScenarioPass>& pass : passes) {
    double total = 0;
    for (const ScenarioPass& r : pass) total += r.setup_seconds;
    setup_times.push_back(total);
  }

  // Checks (untimed), on inputs generated again from the same seeds.
  std::vector<ScenarioCheck> checks;
  Clock::time_point check_start = Clock::now();
  for (size_t i = 0; i < scenarios.size(); ++i) {
    auto in = MakeInputs(scenarios[i], spec, args.seed);
    if (!in.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", in.status().ToString().c_str());
      return 1;
    }
    checks.push_back(
        CheckScenario(scenarios[i], *in, passes[0][i], spec, args.seed, args.corrupt_reference));
  }
  const double check_seconds = SecondsSince(check_start);

  // Aggregation. A scenario's latency is the (Harrell-Davis) median of all
  // its calls over all passes. synth_s and the throughput total these over
  // the scenarios (one pass's worth of work); migration percentiles are over
  // every call (at least 100 per run). Long calls are left out of these
  // totals and percentiles.
  uint64_t attempted = 0, failed = 0;
  size_t synth_scenarios = 0, solved = 0, migrations = 0, outputs_ok = 0;
  size_t agree = 0, optimal_rules = 0;
  int dist_optimal = 0;
  bool deterministic = true, examples_ok = true, correct = true;
  double source_records = 0, migrate_total = 0, synth_total = 0;
  size_t synth_calls = 0, migrate_calls = 0;
  std::vector<double> synth_ms, migrate_call_ms;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioPass& first = passes[0][i];
    const ScenarioCheck& c = checks[i];
    const std::string& name = scenarios[i].bench->name;
    // A long call, made once per run, stays out of the timing totals.
    const bool synth_in_totals = SynthClass(spec, name) != CallClass::kLong;
    const bool migrate_in_totals = MigrateClass(spec, name) != CallClass::kLong;
    std::vector<double> synth_s, migrate_s;
    for (const std::vector<ScenarioPass>& pass : passes) {
      const ScenarioPass& r = pass[i];
      attempted += r.synth_seconds.size() + r.migrate_seconds.size();
      if (!r.synth_error.empty()) ++failed;
      if (!r.migrate_error.empty()) ++failed;
      if (!r.repeatable) deterministic = false;
      if (r.migrate_attempted() && r.migrate_error.empty()) {
        ++migrations;
        if (c.output_ok) ++outputs_ok;
        // Later passes must reproduce the checked first-pass output.
        if (r.output_digest != first.output_digest) deterministic = false;
      }
      if (r.synth_attempted() && r.synth_error.empty() &&
          (r.iterations != first.iterations ||
           r.program.ToString() != first.program.ToString())) {
        deterministic = false;
      }
      const std::vector<double> synth_samples = r.SynthSamples();
      const std::vector<double> migrate_samples = r.MigrateSamples();
      synth_s.insert(synth_s.end(), synth_samples.begin(), synth_samples.end());
      migrate_s.insert(migrate_s.end(), migrate_samples.begin(), migrate_samples.end());
      if (r.migrate_error.empty() && migrate_in_totals) {
        for (double t : migrate_samples) migrate_call_ms.push_back(t * 1e3);
      }
    }
    synth_calls += synth_s.size();
    migrate_calls += migrate_s.size();
    if (first.synth_attempted()) {
      ++synth_scenarios;
      if (first.synth_error.empty()) {
        ++solved;
        if (!c.example_ok) examples_ok = false;
        synth_ms.push_back(Quantile(synth_s, 0.5) * 1e3);
        if (synth_in_totals) synth_total += Quantile(synth_s, 0.5);
      }
      if (c.golden_agree) ++agree;
      optimal_rules += c.optimal_rules;
      dist_optimal += c.dist_optimal;
    }
    if (first.migrate_attempted() && first.migrate_error.empty()) {
      if (migrate_in_totals) {
        migrate_total += Quantile(migrate_s, 0.5);
        source_records += static_cast<double>(first.source_records);
      }
      // The engine's output for the golden program matches the
      // independent evaluator's.
      if (!c.engine_ok) correct = false;
    }
    if (!c.error.empty()) correct = false;

    std::string error = first.synth_error.empty() ? first.migrate_error : first.synth_error;
    if (error.empty()) error = c.error;
    std::printf("%s\n", Json()
                            .Str("row", "scenario")
                            .Str("name", name)
                            .Bool("synthesized", first.synth_attempted())
                            .Bool("synth_in_totals", synth_in_totals)
                            .Bool("migrate_in_totals", migrate_in_totals)
                            .Num("synth_ms", Quantile(synth_s, 0.5) * 1e3)
                            .Int("synth_calls", synth_s.size())
                            .Nums("synth_samples_ms", Scaled(synth_s, 1e3))
                            .Int("iterations", first.iterations)
                            .Num("migrate_ms", Quantile(migrate_s, 0.5) * 1e3)
                            .Int("migrate_calls", migrate_s.size())
                            .Nums("migrate_samples_ms", Scaled(migrate_s, 1e3))
                            .Int("source_records", first.source_records)
                            .Bool("example_ok", c.example_ok)
                            .Bool("golden_agree", c.golden_agree)
                            .Bool("output_ok", c.output_ok)
                            .Bool("engine_ok", c.engine_ok)
                            .Int("optimal_rules", c.optimal_rules)
                            .Int("dist_optimal", static_cast<uint64_t>(c.dist_optimal))
                            .Str("error", error)
                            .Done()
                            .c_str());
  }
  // Correct: every call succeeded, repeated calls agree, every synthesized
  // program reproduces its example, and the engine's migrations match the
  // independent evaluator. Agreement of synthesized programs with the
  // golden ones is a quality metric (golden_agree_ratio), not a check.
  correct = correct && failed == 0 && deterministic && examples_ok;

  std::vector<Metric> metrics;
  Json record;
  record.Str("row", "run")
      .Str("workload", args.workload)
      .Int("seed", args.seed)
      .Int("migration_seed", MigrationSeed(args.seed))
      .Int("migration_scale", spec.migration_scale)
      .Bool("smoke", args.smoke)
      .Int("trace", static_cast<uint64_t>(args.trace))
      .Int("passes", passes.size())
      .Num("measured_s", measured_seconds)
      .Num("check_s", check_seconds)
      .Int("setup_passes", setup_times.size())
      .Int("synthesis_calls", synth_calls)
      .Int("migration_calls", migrate_calls)
      .Bool("deterministic", deterministic)
      .Bool("examples_reproduced", examples_ok)
      .Str("compiler", __VERSION__)
      .Str("build_type", PERFBENCH_BUILD_TYPE);

  if (args.trace == 0) {
    // Timings at the reference speed (see SpeedProbeSeconds); the record
    // keeps them unscaled.
    const double probe_seconds = Median(probes);
    const double scale = Ratio(kProbeReferenceSeconds, probe_seconds);
    const std::vector<Metric> unscaled = {
        {"setup_s", Median(setup_times), "s"},
        {"synth_s", synth_total, "s"},
        {"synth_p50_ms", Quantile(synth_ms, 0.5), "ms"},
        {"migrate_records_per_s", Ratio(source_records, migrate_total), "records/s"},
        {"migrate_p50_ms", Quantile(migrate_call_ms, 0.5), "ms"},
        {"migrate_p90_ms", Quantile(migrate_call_ms, 0.9), "ms"},
    };
    record.Int("probes", probes.size())
        .Num("probe_median_s", probe_seconds)
        .Num("speed_scale", scale)
        .Raw("unscaled", MetricsJson(unscaled));
    for (Metric m : unscaled) {
      m.value = m.name == "migrate_records_per_s" ? Ratio(m.value, scale) : m.value * scale;
      metrics.push_back(m);
    }
    metrics.insert(metrics.end(), {
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
        {"solved_ratio", Ratio(static_cast<double>(solved), static_cast<double>(synth_scenarios)),
         "ratio"},
        {"golden_agree_ratio",
         Ratio(static_cast<double>(agree), static_cast<double>(synth_scenarios)), "ratio"},
        {"output_ok_ratio",
         Ratio(static_cast<double>(outputs_ok), static_cast<double>(migrations)), "ratio"},
        {"optimal_rules", static_cast<double>(optimal_rules), "count"},
        {"dist_optimal", static_cast<double>(dist_optimal), "count"},
    });
  } else {
    // Traced run: Session's wall time for the pass above, then the replay
    // of the same calls with the program's trace rings armed.
    double session_wall = 0;
    for (const ScenarioPass& r : passes[0]) {
      for (double t : r.synth_seconds) session_wall += t;
      for (double t : r.migrate_seconds) session_wall += t;
    }
    trace::Clear();
    trace::Arm();
    ReplayOutcome replay = Replay(scenarios, traced_inputs, passes[0], spec);
    trace::Disarm();
    // The replay's layer spans, with the program's own spans nested in
    // them, as Chrome trace JSON next to the driver (the rings keep the
    // last 16Ki events of each thread).
    const std::string trace_file = args.program_dir + "/trace-" + args.workload + ".json";
    Status dumped = trace::WriteChromeTrace(trace_file);
    if (!dumped.ok()) {
      std::fprintf(stderr, "trace dump failed: %s\n", dumped.ToString().c_str());
      return 1;
    }
    std::string mismatches = "[";
    for (const std::string& m : replay.mismatches) {
      std::fprintf(stderr, "replay mismatch: %s\n", m.c_str());
      mismatches += (mismatches.size() > 1 ? ", \"" : "\"") + m + "\"";
    }
    mismatches += "]";
    // A replay that did not reproduce Session describes some other run:
    // its per-layer numbers are void, and the run says so.
    const bool agrees = replay.mismatches.empty();
    correct = correct && agrees;
    record.Bool("replay_agrees", agrees)
        .Bool("per_layer_void", !agrees)
        .Raw("replay_mismatches", mismatches)
        .Num("session_wall_s", session_wall)
        .Num("replay_wall_s", replay.profile.replay_wall_seconds)
        .Str("trace_file", trace_file)
        .Int("trace_dropped_events", trace::DroppedEvents());
    metrics = PerLayerMetrics(replay.profile, session_wall);
  }
  std::printf("%s\n", record.Done().c_str());
  std::printf("%s\n", Json()
                          .Bool("correct", correct)
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Raw("metrics", MetricsJson(metrics))
                          .Done()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace dynamite

int main(int argc, char** argv) {
  dynamite::perfbench::Args args;
  if (!dynamite::perfbench::ParseArgs(argc, argv, &args)) return 2;
  if (args.spin_test) return dynamite::perfbench::SpinTest();
  return dynamite::perfbench::Run(args);
}
