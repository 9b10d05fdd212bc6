#include "bench/e2e/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>

#include "bench/e2e/generate.h"
#include "src/concolic/cellrun.h"
#include "src/core/pipeline.h"
#include "src/dist/wire.h"
#include "src/instrument/recorder.h"
#include "src/instrument/refine.h"
#include "src/workloads/scenarios.h"
#include "src/workloads/workloads.h"

namespace retrace::e2e {
namespace {

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;
// Replay seed of every search but lc-search's second pass. At one worker,
// exps 1/3/4 then take exactly the repository's sentinel run counts.
constexpr u64 kReplaySeed = 31;
constexpr u64 kSentinelRuns[] = {863, 7027, 2810};
// Per-search budget: far above the 50-7000 runs (at most ~3 s) the
// workloads need, low enough that a batch of stalled lc-search searches
// still ends inside 180 s.
constexpr u64 kMaxRuns = 20'000;
constexpr i64 kWallMs = 20'000;
// Distinct crash reports generated for fleet-triage and service-stream.
constexpr size_t kPopulation = 300;
// service-stream load. About 30% of arrivals are novel at this rate, so
// p90 lies well inside the novel searches and p50 well inside the cache
// hits instead of on the boundary between them. Submit blocks until the
// verdict, so an arrival that finds all submitters blocked waits, and the
// wait counts in its latency (service.gen_late_s_max shows it). More
// submitters wait less but each gets its own malloc arena: at 16, peak
// RSS varied ~20% between identical runs.
constexpr double kArrivalsPerSecond = 25.0;
constexpr int kSubmitters = 4;
// The service starts with an empty cluster table, so at first almost every
// arrival is novel and searches queue up: p90 over the first third of the
// stream read 93-192 ms against 34-58 ms over the rest. The first third is
// warm-up; its arrivals are checked but not timed.
constexpr double kWarmupShare = 1.0 / 3.0;
// The arrival schedule is the traffic's shape. Like the reports' shapes
// (CrashGenerator) it comes from a fixed seed, so every run offers the
// same load; --seed changes the reports' contents.
constexpr u64 kTrafficSeed = 0x7aff1c;
// Requests in the user-site load (UserverLoadSpec).
constexpr int kLoadRequests = 200;
// The native clock: a reference run for every this many seconds of the
// measurement window, and an op is scaled by the median of this many
// reference runs around it. Scaling each op by the whole window's median
// instead gave 0.19-0.23 spreads on record-load p90 and service-stream.
constexpr double kTickPeriodS = 0.5;
constexpr size_t kTickNeighbours = 9;
// The reference run's time on the calibration host (4-vCPU x86-64 VM, gcc
// 12, RelWithDebInfo, tree engine) when it was not contended: the host
// speed setup_s is rescaled to.
constexpr double kNominalNativeRunS = 0.035;
// Scenarios and repetitions the traced run's execution probe uses.
constexpr size_t kProbeScenarios = 16;
constexpr int kProbeReps = 3;

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Median(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : Percentile(samples, 50);
}

// ----- Set-up: the developer's pre-deployment work -------------------------

std::unique_ptr<Pipeline> CompileUserver() {
  const WorkloadSources sources = UserverWorkload();
  Result<std::unique_ptr<Pipeline>> pipeline = Pipeline::FromSources(sources.app, sources.libs);
  Check(pipeline.ok(), "uServer does not compile");
  return pipeline.take();
}

std::unique_ptr<Pipeline> Compile(Tracer& tracer) {
  Tracer::Scope span = tracer.Open("lang.compile");
  return CompileUserver();
}

// The paper's low-coverage analysis: a 4-run budget from a 5-byte,
// incomplete request leaves the request parser unlabeled.
AnalysisResult AnalyzeLowCoverage(Pipeline& pipeline, Tracer& tracer) {
  Tracer::Scope span = tracer.Open("concolic.analyze");
  AnalysisConfig config;
  config.max_runs = 4;
  config.seed = 17;
  return pipeline.RunDynamicAnalysis(UserverExploreSpecLC(), config);
}

// High coverage: 64 runs seeded with the developer's test requests.
AnalysisResult AnalyzeHighCoverage(Pipeline& pipeline, Tracer& tracer) {
  Tracer::Scope span = tracer.Open("concolic.analyze");
  AnalysisConfig config;
  config.max_runs = 64;
  config.seed = 17;
  config.extra_seed_models = UserverExploreSeedModels();
  return pipeline.RunDynamicAnalysis(UserverExploreSpec(), config);
}

// Library-opaque, as in the paper's uServer setup.
StaticAnalysisResult AnalyzeStatic(Pipeline& pipeline, Tracer& tracer) {
  Tracer::Scope span = tracer.Open("analysis.static");
  StaticAnalysisOptions options;
  options.analyze_library = false;
  return pipeline.RunStaticAnalysis(options);
}

InstrumentationPlan MakePlan(Pipeline& pipeline, const PlanInputs& inputs, Tracer& tracer) {
  Tracer::Scope span = tracer.Open("instrument.plan");
  return pipeline.MakePlan(inputs);
}

ReplayConfig SearchConfig(u32 workers, u32 shards) {
  ReplayConfig config;
  config.max_runs = kMaxRuns;
  config.wall_ms = kWallMs;
  config.seed = kReplaySeed;
  config.num_workers = workers;
  config.num_shards = shards;
  return config;
}

struct Recorded {
  Scenario scenario;
  BugReport report;
};

// One user-site run under `plan`; false when it did not crash.
bool Record(Pipeline& pipeline, const InstrumentationPlan& plan, Scenario scenario, u64 req,
            Tracer& tracer, Recorded* out) {
  Tracer::Scope span = tracer.Open("instrument.record", req);
  Pipeline::UserRunOptions options;
  options.policy = scenario.policy.get();
  Result<Pipeline::UserRunOutput> user = pipeline.RecordUserRun(scenario.spec, plan, options);
  if (!user.ok() || !user.value().result.Crashed()) {
    return false;
  }
  out->report = std::move(user.take().report);
  out->scenario = std::move(scenario);
  return true;
}

// kPopulation generated crashes with pairwise distinct report
// fingerprints, so every member is its own service cluster.
std::vector<Recorded> RecordPopulation(Pipeline& pipeline, const InstrumentationPlan& plan,
                                       u64 seed, Tracer& tracer, WorkloadResult* out) {
  CrashGenerator generator(seed);
  std::unordered_set<u64> fingerprints;
  std::vector<Recorded> population;
  for (u64 tries = 0; population.size() < kPopulation; ++tries) {
    Check(tries < 4 * kPopulation, "crash generator keeps repeating reports");
    Scenario scenario = generator.Next();
    const std::string name = scenario.name;
    Recorded recorded;
    if (!Record(pipeline, plan, std::move(scenario), tries, tracer, &recorded)) {
      out->violations.push_back("generated input " + name + " did not crash at the user site");
      continue;
    }
    if (fingerprints.insert(ReportFingerprint(recorded.report)).second) {
      population.push_back(std::move(recorded));
    }
  }
  return population;
}

// The host-speed yardstick: one uninstrumented concrete run of the
// 200-request uServer load. The shared host this benchmark was calibrated
// on ran identical work up to 1.7x slower, on every core at once, for a
// minute at a time, and a single reference run varied by up to 1.6x from
// one half-second to the next, so op times taken at different moments do
// not compare. Reference runs timed next to an op slow down with it: the
// op's latency in reference runs keeps the system's cost relative to
// native execution and cancels the host's speed.
class NativeClock {
 public:
  // Compiles its own copy of uServer, outside any timed section.
  explicit NativeClock(Tracer& tracer)
      : tracer_(tracer),
        pipeline_(CompileUserver()),
        runner_(pipeline_->module(), UserverLoadSpec(kLoadRequests)) {}

  // Times one reference run.
  void Tick() {
    Tracer::Scope span = tracer_.Open("bench.native_clock");
    CellRunConfig config;
    config.symbolic_syscalls = false;
    const int64_t start = NowNs();
    runner_.Run(config);
    Add(start, SecondsSince(start));
  }

  // Times reference runs until the window has one for every kTickPeriodS
  // it has lasted, so that a long op is followed by several.
  void CatchUp() {
    const double owed = SecondsSince(window_start_ns_) / kTickPeriodS + 1.0;
    while (static_cast<double>(seconds_.size()) < owed) {
      Tick();
    }
  }

  // A reference run timed by the caller, started at `start_ns`. Runs are
  // added in start order.
  void Add(int64_t start_ns, double seconds) {
    starts_ns_.push_back(start_ns);
    seconds_.push_back(seconds);
  }

  // Forgets the set-up's reference runs (set-up churns memory; the ops do
  // not) and starts the measurement window.
  void StartWindow() {
    starts_ns_.clear();
    seconds_.clear();
    window_start_ns_ = NowNs();
  }

  // Median of the kTickNeighbours reference runs around the one started
  // nearest `at_ns`.
  double Near(int64_t at_ns) const {
    Check(!seconds_.empty(), "native clock has no reference run");
    return MedianNearest(starts_ns_, seconds_, at_ns, kTickNeighbours);
  }

  double MedianSeconds() const {
    Check(!seconds_.empty(), "native clock has no reference run");
    return Median(seconds_);
  }

 private:
  Tracer& tracer_;
  std::unique_ptr<Pipeline> pipeline_;
  CellRunner runner_;
  int64_t window_start_ns_ = 0;
  std::vector<int64_t> starts_ns_;  // Of each reference run, ascending.
  std::vector<double> seconds_;
};

// Runs `fill` kSetupReps times on a fresh S and keeps the last one.
// setup_s is the median repetition, rescaled by the reference runs timed
// between the repetitions to a host on which one takes kNominalNativeRunS.
template <typename S, typename Fill>
std::unique_ptr<S> RepeatSetup(Tracer& tracer, NativeClock& clock, WorkloadResult* out,
                               Fill fill) {
  std::vector<double> seconds;
  std::unique_ptr<S> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    clock.Tick();
    Tracer::Scope span = tracer.Open("setup", static_cast<u64>(rep));
    const int64_t start = NowNs();
    setup = std::make_unique<S>();
    fill(setup.get());
    seconds.push_back(SecondsSince(start));
  }
  clock.Tick();
  out->end_to_end["setup_s"] = Median(seconds) / clock.MedianSeconds() * kNominalNativeRunS;
  out->per_layer["bench.setup_wall_s"] = Median(seconds);
  clock.StartWindow();
  return setup;
}

// ----- Measurement helpers ---------------------------------------------------

// The user-site cost of `plan` on the standard 200-request load: modeled
// native CPU (paper §5.1, with the cost ratio ReproduceAdaptive's budget
// uses) and branch-log bytes per request.
void PlanCost(Pipeline& pipeline, const InstrumentationPlan& plan, Tracer& tracer,
              WorkloadResult* out) {
  Tracer::Scope span = tracer.Open("instrument.overhead");
  const Pipeline::OverheadSample sample =
      pipeline.MeasureOverhead(UserverLoadSpec(kLoadRequests), plan, nullptr, 1);
  out->end_to_end["native_cpu_pct"] =
      100.0 + 100.0 * RefineConfig{}.log_cost_ratio *
                  Ratio(static_cast<double>(sample.instrumented_execs),
                        static_cast<double>(sample.branch_execs));
  out->end_to_end["log_bytes_per_req"] = static_cast<double>(sample.log_bytes) / kLoadRequests;
  out->per_layer["instrument.execs_per_req"] =
      static_cast<double>(sample.instrumented_execs) / kLoadRequests;
}

// Op latencies, each in seconds and in native reference runs; `ops`
// completed in `op_seconds` of op time.
void SetLatencies(const std::vector<double>& seconds, const std::vector<double>& native,
                  double ops, double op_seconds, const NativeClock& clock,
                  WorkloadResult* out) {
  Check(!seconds.empty() && seconds.size() == native.size(), "no op latencies");
  out->end_to_end["latency_p50_x"] = Median(native);
  out->end_to_end["latency_p90_x"] = Percentile(native, 90);
  out->per_layer["bench.latency_s_p50"] = Median(seconds);
  out->per_layer["bench.latency_s_p90"] = Percentile(seconds, 90);
  out->per_layer["bench.ops_per_s"] = Ratio(ops, op_seconds);
  out->per_layer["bench.native_run_s"] = clock.MedianSeconds();
  out->latency_samples = seconds.size();
}

// Sums of the ReplayStats counters the per-layer metrics read.
struct ReplayTally {
  double searches = 0, seconds = 0, runs = 0, solver_calls = 0, on_log = 0;
  double concrete_mismatch = 0, log_exhausted = 0, wrong_site = 0;
  double steals = 0, dedup_skips = 0, cancelled = 0, slices_solved = 0, slice_hits = 0;
  double pending_peak = 0, budget_exhausted = 0;
  double forked = 0, harvest_runs = 0, wire_bytes = 0, gossiped = 0, rebalance_rounds = 0;
  double shards_lost = 0, pendings_recovered = 0, fallback = 0;
  std::vector<double> job_overhead_s;

  // `seconds`: the caller's wall time around the search.
  void Add(const ReplayResult& r, double seconds_taken) {
    const ReplayStats& s = r.stats;
    searches += 1;
    seconds += seconds_taken;
    runs += static_cast<double>(s.runs);
    solver_calls += static_cast<double>(s.solver_calls);
    on_log += static_cast<double>(s.aborts_forced_direction);
    concrete_mismatch += static_cast<double>(s.aborts_concrete_mismatch);
    log_exhausted += static_cast<double>(s.aborts_log_exhausted);
    wrong_site += static_cast<double>(s.crashes_wrong_site);
    steals += static_cast<double>(s.steals);
    dedup_skips += static_cast<double>(s.dedup_skips);
    cancelled += static_cast<double>(s.cancelled_runs);
    slices_solved += static_cast<double>(s.slices_solved);
    slice_hits += static_cast<double>(s.slice_sat_hits + s.slice_unsat_hits);
    pending_peak = std::max(pending_peak, static_cast<double>(s.pending_peak));
    budget_exhausted += r.budget_exhausted ? 1 : 0;
    harvest_runs += static_cast<double>(s.harvest_runs);
    wire_bytes += static_cast<double>(s.wire_bytes_tx + s.wire_bytes_rx);
    gossiped += static_cast<double>(s.verdicts_gossiped);
    rebalance_rounds += static_cast<double>(s.rebalance_rounds);
    shards_lost += static_cast<double>(s.shards_lost);
    pendings_recovered += static_cast<double>(s.pendings_recovered);
    fallback += s.fallback_inprocess ? 1 : 0;
    if (!s.per_shard.empty()) {
      forked += 1;
      double slowest = 0.0;
      for (const ReplayShardStats& shard : s.per_shard) {
        slowest = std::max(slowest, shard.wall_seconds);
      }
      job_overhead_s.push_back(seconds_taken - slowest);
    }
  }

  void Report(MetricValues* m) const {
    (*m)["replay.reproduce_s"] = Ratio(seconds, searches);
    (*m)["replay.runs_per_s"] = Ratio(runs, seconds);
    (*m)["replay.runs_per_report"] = Ratio(runs, searches);
    (*m)["replay.on_log_rate"] = Ratio(on_log, runs);
    (*m)["replay.pending_peak"] = pending_peak;
    (*m)["replay.budget_exhausted"] = budget_exhausted;
    (*m)["replay.aborts_concrete_mismatch"] = Ratio(concrete_mismatch, searches);
    (*m)["replay.aborts_log_exhausted"] = Ratio(log_exhausted, searches);
    (*m)["replay.crashes_wrong_site"] = Ratio(wrong_site, searches);
    (*m)["replay.steals"] = Ratio(steals, searches);
    (*m)["replay.dedup_skips"] = Ratio(dedup_skips, searches);
    (*m)["replay.cancelled_runs"] = Ratio(cancelled, searches);
    (*m)["solver.calls_per_run"] = Ratio(solver_calls, runs);
    (*m)["solver.slice_hit_rate"] = Ratio(slice_hits, slice_hits + slices_solved);
    (*m)["solver.slices_solved"] = Ratio(slices_solved, searches);
    (*m)["dist.job_overhead_s_p50"] = Median(job_overhead_s);
    (*m)["dist.wire_bytes_per_search"] = Ratio(wire_bytes, searches);
    (*m)["dist.harvest_runs_per_search"] = Ratio(harvest_runs, searches);
    (*m)["dist.forked_share"] = Ratio(forked, searches);
    (*m)["dist.verdicts_gossiped_per_search"] = Ratio(gossiped, searches);
    (*m)["dist.rebalance_rounds"] = Ratio(rebalance_rounds, searches);
    (*m)["dist.shards_lost"] = shards_lost;
    (*m)["dist.pendings_recovered"] = pendings_recovered;
    (*m)["dist.fallback_inprocess"] = fallback;
  }
};

// Books one reproduction once its clock has stopped: re-runs the witness,
// and counts the op as failed unless it reproduced, passed the workload's
// own checks, and its witness crashes at the reported site. Settling each
// op right away keeps no witnesses alive, so peak RSS does not grow with
// the number of ops that fit the window.
void SettleOp(Pipeline& pipeline, const BugReport& report, const ReplayResult& result,
              bool checks_passed, Tracer& tracer, WorkloadResult* out) {
  const u64 op = out->attempted++;
  bool ok = result.reproduced && checks_passed;
  if (!result.reproduced) {
    out->violations.push_back("op " + std::to_string(op) + " did not reproduce");
  } else {
    Tracer::Scope span = tracer.Open("core.verify", op);
    if (!pipeline.VerifyWitness(report, result.witness_cells)) {
      ok = false;
      out->per_layer["core.verify_failed"] += 1;
      out->violations.push_back("op " + std::to_string(op) + ": witness does not verify");
    }
  }
  out->failed += ok ? 0 : 1;
  out->per_layer["core.repro_rate"] = Ratio(static_cast<double>(out->attempted - out->failed),
                                            static_cast<double>(out->attempted));
}

// ----- Traced-run probes (after the workload, so they cannot disturb it) ---

// CellRunner::Run on the workload's own inputs, concrete and shadow.
void ExecProbe(const IrModule& module, const std::vector<Scenario>& scenarios,
               MetricValues* m) {
  double instrs[2] = {0, 0};
  double seconds[2] = {0, 0};
  double runs = 0;
  for (const Scenario& scenario : scenarios) {
    CellRunner runner(module, scenario.spec);
    for (int shadow = 0; shadow < 2; ++shadow) {
      for (int rep = 0; rep < kProbeReps; ++rep) {
        ExprArena arena;
        CellRunConfig config;
        config.policy = scenario.policy.get();
        config.arena = shadow != 0 ? &arena : nullptr;
        config.symbolic_syscalls = shadow != 0;
        const int64_t start = NowNs();
        const CellRunOutput run = runner.Run(config);
        seconds[shadow] += SecondsSince(start);
        instrs[shadow] += static_cast<double>(run.result.stats.instrs);
      }
    }
    runs += kProbeReps;
  }
  (*m)["exec.concrete_minstr_per_s"] = Ratio(instrs[0], seconds[0]) / 1e6;
  (*m)["exec.shadow_minstr_per_s"] = Ratio(instrs[1], seconds[1]) / 1e6;
  (*m)["exec.instrs_per_run"] = Ratio(instrs[0], runs);
}

// The recorder's hot path alone, in native code: ns per logged branch
// (the paper's §5.1 yardstick is ~3 ns).
double RecordBitNs(const InstrumentationPlan& plan) {
  constexpr u64 kBits = u64{1} << 24;
  std::vector<u8> pattern(4096);
  Rng rng(7);
  for (u8& bit : pattern) {
    bit = static_cast<u8>(rng.Next() & 1);
  }
  BranchTraceRecorder recorder(plan);
  const int64_t start = NowNs();
  for (u64 i = 0; i < kBits; ++i) {
    recorder.RecordBit(pattern[i & 4095] != 0);
  }
  const double ns = static_cast<double>(NowNs() - start) / static_cast<double>(kBits);
  Check(recorder.bits_recorded() == kBits, "RecordBit probe lost bits");
  return ns;
}

// Stops the workload's clock and reads its memory high-water mark. When
// tracing, books the trace's own health (coverage of the wall time by
// top-level spans; probe cost charged against that wall time), derives
// the set-up layer times from the spans, and runs the probes.
void Finish(Tracer& tracer, int64_t start_ns, const IrModule& module,
            const std::vector<Scenario>& probe_scenarios, const InstrumentationPlan& plan,
            WorkloadResult* out) {
  const int64_t end_ns = NowNs();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out->end_to_end["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (!tracer.enabled()) {
    return;
  }
  out->spans = tracer.spans();
  const std::vector<Span>& spans = out->spans;
  const double wall_ns = static_cast<double>(end_ns - start_ns);
  MetricValues& m = out->per_layer;
  m["bench.span_coverage"] = static_cast<double>(CoveredNs(spans, start_ns, end_ns)) / wall_ns;
  m["bench.trace_overhead"] = static_cast<double>(spans.size()) * ProbeCostNs() / wall_ns;
  m["lang.compile_s"] = TotalSeconds(spans, "lang.compile") / kSetupReps;
  m["concolic.analyze_s"] = TotalSeconds(spans, "concolic.analyze") / kSetupReps;
  m["analysis.static_s"] = TotalSeconds(spans, "analysis.static") / kSetupReps;
  m["instrument.plan_s"] = TotalSeconds(spans, "instrument.plan") / kSetupReps;
  m["instrument.record_s_p50"] = Median(DurationsSeconds(spans, "instrument.record"));
  m["core.verify_s_p50"] = Median(DurationsSeconds(spans, "core.verify"));
  ExecProbe(module, probe_scenarios, &m);
  m["instrument.record_bit_ns"] = RecordBitNs(plan);
}

std::vector<Scenario> ProbeScenarios(const std::vector<Recorded>& reports) {
  std::vector<Scenario> out;
  for (size_t i = 0; i < reports.size() && i < kProbeScenarios; ++i) {
    out.push_back(reports[i].scenario);
  }
  return out;
}

// ----- lc-search ------------------------------------------------------------
// uServer exps 1, 3 and 4 under the dynamic (lc) plan, one-shot Reproduce
// at one worker, once at the sentinel replay seed and once at a replay
// seed derived from --seed; exp 5 through the adaptive loop. Closed loop,
// one client, whole batches until the window is spent.

void LcSearch(const Options& options, Tracer& tracer, NativeClock& clock,
              WorkloadResult* out) {
  const int64_t start_ns = NowNs();
  struct Setup {
    std::unique_ptr<Pipeline> pipeline;
    InstrumentationPlan plan;
    double analyze_runs = 0;
    std::vector<Recorded> reports;  // Exps 1, 3, 4, 5.
  };
  const std::unique_ptr<Setup> setup = RepeatSetup<Setup>(tracer, clock, out, [&](Setup* s) {
    s->pipeline = Compile(tracer);
    const AnalysisResult lc = AnalyzeLowCoverage(*s->pipeline, tracer);
    s->analyze_runs = static_cast<double>(lc.runs);
    s->plan = MakePlan(*s->pipeline, PlanInputs::Dynamic(lc), tracer);
    for (int exp : {1, 3, 4, 5}) {
      Recorded recorded;
      Check(Record(*s->pipeline, s->plan, UserverScenario(exp), static_cast<u64>(exp), tracer,
                   &recorded),
            "a uServer experiment no longer crashes at the user site");
      s->reports.push_back(std::move(recorded));
    }
  });
  Pipeline& pipeline = *setup->pipeline;

  const ReplayConfig replay = SearchConfig(1, 1);
  ReplayConfig derived = replay;
  derived.seed = Rng(options.seed).Next();
  Pipeline::AdaptiveConfig adaptive;
  const Recorded& exp5 = setup->reports[3];
  adaptive.user_spec = exp5.scenario.spec;
  adaptive.user_run.policy = exp5.scenario.policy.get();
  adaptive.replay = replay;
  adaptive.replay.max_runs = 3000;
  adaptive.max_rounds = 3;
  adaptive.refine.max_added_branches = 8;

  // A batch: exps 1, 3 and 4 at the sentinel seed (ops 0-2), the same at
  // the derived seed (ops 3-5), then exp 5 (op 6).
  constexpr size_t kBatchOps = 7;
  std::vector<double> op_s[kBatchOps];  // Each op's latency, over the batches.
  std::vector<int64_t> op_start_ns[kBatchOps];
  std::vector<double> refine_s;
  ReplayTally tally;
  InstrumentationPlan adaptive_plan;
  double adaptive_rounds = 0;
  double op_seconds = 0.0;
  const int64_t measure_ns = NowNs();
  // Whole batches only, so every run measures the same mix of reports; the
  // batch in flight when the window ends (7-12 s) finishes.
  while (SecondsSince(measure_ns) < options.seconds) {
    for (size_t k = 0; k < kBatchOps; ++k) {
      const size_t e = k < 6 ? k % 3 : 3;
      const Recorded& recorded = setup->reports[e];
      clock.CatchUp();
      ReplayResult result;
      bool sentinel_ok = true;
      const int64_t t = NowNs();
      op_start_ns[k].push_back(t);
      if (e < 3) {
        Tracer::Scope span = tracer.Open("replay.reproduce", out->attempted);
        result = pipeline.Reproduce(recorded.report, setup->plan, k < 3 ? replay : derived).take();
        op_s[k].push_back(SecondsSince(t));
        tally.Add(result, op_s[k].back());
        sentinel_ok = k >= 3 || result.stats.runs == kSentinelRuns[e];
        if (!sentinel_ok) {
          out->violations.push_back(recorded.scenario.name + ": " +
                                    std::to_string(result.stats.runs) +
                                    " runs at replay seed " + std::to_string(kReplaySeed) +
                                    ", sentinel " +
                                    std::to_string(kSentinelRuns[e]));
        }
      } else {
        Tracer::Scope span = tracer.Open("instrument.adaptive", out->attempted);
        Pipeline::AdaptiveResult r =
            pipeline.ReproduceAdaptive(recorded.report, setup->plan, adaptive).take();
        op_s[k].push_back(SecondsSince(t));
        double search_s = 0.0;
        for (const Pipeline::AdaptiveRound& round : r.rounds) {
          search_s += round.wall_seconds;
        }
        refine_s.push_back(op_s[k].back() - search_s);
        adaptive_rounds = static_cast<double>(r.rounds.size());
        adaptive_plan = r.final_plan;
        // The witness answers the last round's report, re-recorded under
        // the refined plan from the same input, so it crashes at exp 5's
        // site.
        result = std::move(r.final_result);
      }
      op_seconds += op_s[k].back();
      SettleOp(pipeline, recorded.report, result, sentinel_ok, tracer, out);
    }
  }
  // The ops differ ~30x in cost, so percentiles over raw samples would
  // jump with the number of batches that fit the window. Each op of the
  // batch contributes its median latency instead.
  clock.CatchUp();  // Reference runs after the last op, too.
  std::vector<double> latencies;
  std::vector<double> native;
  for (size_t k = 0; k < kBatchOps; ++k) {
    std::vector<double> x;
    for (size_t b = 0; b < op_s[k].size(); ++b) {
      x.push_back(op_s[k][b] / clock.Near(op_start_ns[k][b]));
    }
    latencies.push_back(Median(op_s[k]));
    native.push_back(Median(x));
  }
  SetLatencies(latencies, native, static_cast<double>(out->attempted), op_seconds, clock, out);
  PlanCost(pipeline, adaptive_plan, tracer, out);

  MetricValues& m = out->per_layer;
  tally.Report(&m);
  m["concolic.analyze_runs"] = setup->analyze_runs;
  m["instrument.adaptive_rounds"] = adaptive_rounds;
  m["instrument.adaptive_plan_bits"] = static_cast<double>(adaptive_plan.NumInstrumented());
  m["instrument.refine_s"] = Median(refine_s);
  Finish(tracer, start_ns, pipeline.module(), ProbeScenarios(setup->reports), setup->plan, out);
}

// ----- fleet-triage ---------------------------------------------------------
// Distinct generated crash reports, each reproduced by one-shot Reproduce
// on 2 fork shards x 2 workers. Closed loop, one client.

struct PopulationSetup {
  std::unique_ptr<Pipeline> pipeline;
  InstrumentationPlan plan;  // dyn+static (lc).
  double analyze_runs = 0;
  std::vector<Recorded> reports;
  std::unique_ptr<ReplayService> service;  // service-stream only.
};

void FillPopulation(PopulationSetup* s, u64 seed, Tracer& tracer, WorkloadResult* out) {
  s->pipeline = Compile(tracer);
  const AnalysisResult lc = AnalyzeLowCoverage(*s->pipeline, tracer);
  s->analyze_runs = static_cast<double>(lc.runs);
  const StaticAnalysisResult stat = AnalyzeStatic(*s->pipeline, tracer);
  s->plan = MakePlan(*s->pipeline, PlanInputs::DynamicStatic(lc, stat), tracer);
  s->reports = RecordPopulation(*s->pipeline, s->plan, seed, tracer, out);
}

void FleetTriage(const Options& options, Tracer& tracer, NativeClock& clock,
                 WorkloadResult* out) {
  const int64_t start_ns = NowNs();
  const std::unique_ptr<PopulationSetup> setup =
      RepeatSetup<PopulationSetup>(tracer, clock, out, [&](PopulationSetup* s) {
        FillPopulation(s, options.seed, tracer, out);
      });
  Pipeline& pipeline = *setup->pipeline;

  const ReplayConfig replay = SearchConfig(2, 2);
  std::vector<double> latencies;
  std::vector<int64_t> starts_ns;
  ReplayTally tally;
  double op_seconds = 0.0;
  const int64_t measure_ns = NowNs();
  while (out->attempted == 0 || SecondsSince(measure_ns) < options.seconds) {
    const BugReport& report = setup->reports[out->attempted % setup->reports.size()].report;
    clock.CatchUp();
    ReplayResult result;
    {
      Tracer::Scope span = tracer.Open("replay.reproduce", out->attempted);
      const int64_t t = NowNs();
      starts_ns.push_back(t);
      result = pipeline.Reproduce(report, setup->plan, replay).take();
      latencies.push_back(SecondsSince(t));
    }
    op_seconds += latencies.back();
    tally.Add(result, latencies.back());
    SettleOp(pipeline, report, result, true, tracer, out);
  }
  clock.CatchUp();
  std::vector<double> native;
  for (size_t i = 0; i < latencies.size(); ++i) {
    native.push_back(latencies[i] / clock.Near(starts_ns[i]));
  }
  SetLatencies(latencies, native, static_cast<double>(latencies.size()), op_seconds, clock, out);
  PlanCost(pipeline, setup->plan, tracer, out);

  tally.Report(&out->per_layer);
  out->per_layer["concolic.analyze_runs"] = setup->analyze_runs;
  Finish(tracer, start_ns, pipeline.module(), ProbeScenarios(setup->reports), setup->plan, out);
}

// ----- service-stream -------------------------------------------------------
// In-process ReplayService. Open loop: arrivals at kArrivalsPerSecond,
// reports drawn Zipf(s=1) from the population; the main thread generates
// and kSubmitters threads call Submit. Latency runs from each arrival's
// due time to its verdict, for the arrivals after the warm-up.

struct Answer {
  bool answered = false;
  int64_t due_ns = 0;
  int64_t start_ns = 0;  // Submit called: late when the generator or every submitter was busy.
  int64_t done_ns = 0;
  VerdictOrigin origin = VerdictOrigin::kRejected;
  bool reproduced = false;
  u64 cluster = 0;
  ReplayResult fresh;  // The search result, for the arrival that ran it.
};

void ServiceStream(const Options& options, Tracer& tracer, NativeClock& clock,
                   WorkloadResult* out) {
  const int64_t start_ns = NowNs();
  const std::unique_ptr<PopulationSetup> setup =
      RepeatSetup<PopulationSetup>(tracer, clock, out, [&](PopulationSetup* s) {
        FillPopulation(s, options.seed, tracer, out);
        Tracer::Scope span = tracer.Open("service.start");
        ServiceConfig config;
        config.replay = SearchConfig(1, 1);
        s->service = s->pipeline->MakeService(s->plan, config).take();
        s->service->Start();
      });
  Pipeline& pipeline = *setup->pipeline;
  ReplayService& service = *setup->service;

  const std::vector<Arrival> arrivals = ArrivalSchedule(
      kTrafficSeed, static_cast<size_t>(kArrivalsPerSecond * options.seconds + 0.5),
      options.seconds, kPopulation);
  std::vector<Answer> answers(arrivals.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> ready;  // Guarded by mu.
  bool closed = false;       // Guarded by mu.
  auto submitter = [&] {
    for (;;) {
      size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !ready.empty(); });
        if (ready.empty()) {
          return;
        }
        i = ready.front();
        ready.pop_front();
      }
      Answer& answer = answers[i];
      answer.start_ns = NowNs();
      Tracer::Scope span = tracer.Open("service.submit", i);
      ServiceVerdict verdict =
          service.Submit("users", setup->reports[arrivals[i].report].report);
      answer.done_ns = NowNs();
      answer.answered = true;
      answer.origin = verdict.origin;
      answer.reproduced = verdict.reproduced;
      answer.cluster = verdict.cluster;
      if (verdict.origin == VerdictOrigin::kFresh) {
        answer.fresh = std::move(verdict.result);
      }
    }
  };

  // The open loop does not pause between ops, so reference runs come from
  // their own thread, on one of the cores the one search worker leaves.
  std::atomic<bool> streaming{true};
  std::thread ticker([&] {
    while (streaming.load()) {
      clock.Tick();
      std::this_thread::sleep_for(std::chrono::duration<double>(kTickPeriodS));
    }
    clock.Tick();
  });
  int64_t stream_ns = 0;
  {
    Tracer::Scope span = tracer.Open("bench.generate");
    std::vector<std::thread> threads;
    for (int k = 0; k < kSubmitters; ++k) {
      threads.emplace_back(submitter);
    }
    stream_ns = NowNs();
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const int64_t due_ns = stream_ns + static_cast<int64_t>(arrivals[i].due_s * 1e9);
      answers[i].due_ns = due_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::nanoseconds(due_ns))));
      {
        std::lock_guard<std::mutex> lock(mu);
        ready.push_back(i);
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  streaming.store(false);
  ticker.join();
  const WireHealthStats health = service.HealthStats();
  {
    Tracer::Scope span = tracer.Open("service.shutdown");
    service.Shutdown();
  }

  // Checks: one verdict per arrival, nothing refused, one search per
  // distinct report drawn, every verdict a reproduction whose witness
  // verifies (once per cluster).
  std::vector<double> latencies;
  std::vector<double> native;
  std::vector<double> search_s;
  std::vector<double> queue_wait_s;
  std::map<u64, const Answer*> fresh_by_cluster;
  std::unordered_set<u32> drawn;
  ReplayTally tally;
  int64_t last_done_ns = stream_ns;
  double gen_late_s = 0.0;
  double answered = 0;
  double cached = 0;
  double attached = 0;
  double rejected = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    drawn.insert(arrivals[i].report);
    if (!a.answered) {
      out->violations.push_back("arrival " + std::to_string(i) + " got no verdict");
      continue;
    }
    const double latency = static_cast<double>(a.done_ns - a.due_ns) * 1e-9;
    answered += 1;
    if (arrivals[i].due_s >= kWarmupShare * options.seconds) {
      latencies.push_back(latency);
      native.push_back(latency / clock.Near(a.due_ns));
    }
    gen_late_s = std::max(gen_late_s, static_cast<double>(a.start_ns - a.due_ns) * 1e-9);
    last_done_ns = std::max(last_done_ns, a.done_ns);
    cached += a.origin == VerdictOrigin::kCached ? 1 : 0;
    attached += a.origin == VerdictOrigin::kAttached ? 1 : 0;
    rejected += a.origin == VerdictOrigin::kRejected ? 1 : 0;
    if (a.origin == VerdictOrigin::kFresh) {
      fresh_by_cluster[a.cluster] = &a;
      search_s.push_back(a.fresh.wall_seconds);
      queue_wait_s.push_back(latency - a.fresh.wall_seconds);
      tally.Add(a.fresh, a.fresh.wall_seconds);
    }
  }
  if (rejected > 0) {
    out->violations.push_back(std::to_string(static_cast<u64>(rejected)) + " arrivals refused");
  }
  if (health.searches_run != drawn.size() || fresh_by_cluster.size() != drawn.size()) {
    out->violations.push_back("ran " + std::to_string(health.searches_run) + " searches for " +
                              std::to_string(drawn.size()) + " distinct reports");
  }
  std::unordered_set<u64> bad_clusters;
  double verify_failed = 0;
  for (const auto& [cluster, answer] : fresh_by_cluster) {
    const size_t i = static_cast<size_t>(answer - answers.data());
    Tracer::Scope span = tracer.Open("core.verify", i);
    if (!answer->reproduced ||
        !pipeline.VerifyWitness(setup->reports[arrivals[i].report].report,
                                answer->fresh.witness_cells)) {
      bad_clusters.insert(cluster);
      verify_failed += answer->reproduced ? 1 : 0;
      out->violations.push_back("cluster of arrival " + std::to_string(i) +
                                " has no verified reproduction");
    }
  }
  for (const Answer& a : answers) {
    out->attempted += 1;
    const bool ok = a.answered && a.reproduced && a.origin != VerdictOrigin::kRejected &&
                    bad_clusters.count(a.cluster) == 0;
    out->failed += ok ? 0 : 1;
  }
  SetLatencies(latencies, native, answered, static_cast<double>(last_done_ns - stream_ns) * 1e-9,
               clock, out);
  PlanCost(pipeline, setup->plan, tracer, out);

  MetricValues& m = out->per_layer;
  tally.Report(&m);
  const double n = static_cast<double>(arrivals.size());
  m["concolic.analyze_runs"] = setup->analyze_runs;
  m["service.cache_hit_rate"] = Ratio(cached, n);
  m["service.attach_rate"] = Ratio(attached, n);
  m["service.searches_run"] = static_cast<double>(health.searches_run);
  m["service.rejected"] = rejected;
  m["service.search_s_p50"] = Median(search_s);
  m["service.queue_wait_s_p90"] = queue_wait_s.empty() ? 0.0 : Percentile(queue_wait_s, 90);
  m["service.repro_s_p99"] = latencies.empty() ? 0.0 : Percentile(latencies, 99);
  m["service.gen_late_s_max"] = gen_late_s;
  m["solver.cache_entries"] =
      static_cast<double>(health.cache_sat_entries + health.cache_unsat_entries);
  m["core.verify_failed"] = verify_failed;
  m["core.repro_rate"] = Ratio(static_cast<double>(out->attempted - out->failed), n);
  Finish(tracer, start_ns, pipeline.module(), ProbeScenarios(setup->reports), setup->plan, out);
}

// ----- record-load ----------------------------------------------------------
// The user site: MeasureOverhead on the 200-request load under each of
// five plans, round after round until the window is spent.

void RecordLoad(const Options& options, Tracer& tracer, NativeClock& clock,
                WorkloadResult* out) {
  const int64_t start_ns = NowNs();
  struct Setup {
    std::unique_ptr<Pipeline> pipeline;
    double analyze_runs = 0;
    std::vector<InstrumentationPlan> plans;  // dyn lc, dyn hc, dyn+static lc, static, all.
  };
  const std::unique_ptr<Setup> setup = RepeatSetup<Setup>(tracer, clock, out, [&](Setup* s) {
    s->pipeline = Compile(tracer);
    const AnalysisResult lc = AnalyzeLowCoverage(*s->pipeline, tracer);
    const AnalysisResult hc = AnalyzeHighCoverage(*s->pipeline, tracer);
    s->analyze_runs = static_cast<double>(lc.runs + hc.runs);
    const StaticAnalysisResult stat = AnalyzeStatic(*s->pipeline, tracer);
    s->plans.push_back(MakePlan(*s->pipeline, PlanInputs::Dynamic(lc), tracer));
    s->plans.push_back(MakePlan(*s->pipeline, PlanInputs::Dynamic(hc), tracer));
    s->plans.push_back(MakePlan(*s->pipeline, PlanInputs::DynamicStatic(lc, stat), tracer));
    s->plans.push_back(MakePlan(*s->pipeline, PlanInputs::Static(stat), tracer));
    s->plans.push_back(MakePlan(*s->pipeline, PlanInputs::AllBranches(), tracer));
  });
  Pipeline& pipeline = *setup->pipeline;
  const size_t num_plans = setup->plans.size();
  const InputSpec load = UserverLoadSpec(kLoadRequests);

  std::vector<std::vector<double>> run_s(num_plans);
  std::vector<u64> branch_execs(num_plans, 0);
  std::vector<double> latencies;
  std::vector<int64_t> starts_ns;
  std::vector<double> slowdowns;  // dyn+static (lc).
  // Each MeasureOverhead call times a plain run of the load right before
  // the instrumented one: the reference runs come for free.
  const int64_t measure_ns = NowNs();
  u64 op = 0;
  do {
    for (size_t p = 0; p < num_plans; ++p) {
      Tracer::Scope span = tracer.Open("instrument.overhead", op++);
      const int64_t t = NowNs();
      const Pipeline::OverheadSample s =
          pipeline.MeasureOverhead(load, setup->plans[p], nullptr, 1);
      clock.Add(t, s.plain_seconds);
      starts_ns.push_back(t);
      run_s[p].push_back(s.instrumented_seconds);
      // Per-request time of this run: every request of a run gets the
      // same share, so one sample per run gives the same percentiles.
      latencies.push_back(s.instrumented_seconds / kLoadRequests);
      if (p == 2) {
        // Instrumented over plain time: the two runs are back to back,
        // so host speed cancels.
        slowdowns.push_back(Ratio(s.instrumented_seconds, s.plain_seconds));
      }
      // The recorder logs one bit per instrumented branch execution, and
      // the program's path does not depend on the plan or the round.
      if (branch_execs[p] == 0) {
        branch_execs[p] = s.branch_execs;
      }
      const bool ok =
          s.log_bytes == (s.instrumented_execs + 7) / 8 && s.branch_execs == branch_execs[p];
      if (!ok) {
        out->violations.push_back("plan " + std::to_string(p) + ": log of " +
                                  std::to_string(s.log_bytes) + " bytes for " +
                                  std::to_string(s.instrumented_execs) + " logged branches");
      }
      out->attempted += kLoadRequests;
      out->failed += ok ? 0 : kLoadRequests;
    }
  } while (SecondsSince(measure_ns) < options.seconds);
  std::vector<double> native;
  for (size_t i = 0; i < latencies.size(); ++i) {
    native.push_back(latencies[i] / clock.Near(starts_ns[i]));
  }
  // Requests per second over one median run of each plan.
  double median_sum = 0.0;
  for (const std::vector<double>& samples : run_s) {
    median_sum += Median(samples);
  }
  SetLatencies(latencies, native, static_cast<double>(kLoadRequests * num_plans), median_sum,
               clock, out);
  PlanCost(pipeline, setup->plans[2], tracer, out);

  MetricValues& m = out->per_layer;
  m["concolic.analyze_runs"] = setup->analyze_runs;
  m["instrument.overhead_run_s_p50"] = Median(latencies) * kLoadRequests;
  m["instrument.slowdown"] = Median(slowdowns);
  Scenario probe;
  probe.name = "load";
  probe.spec = load;
  Finish(tracer, start_ns, pipeline.module(), {probe}, setup->plans[2], out);
}

}  // namespace

bool RunWorkload(const Options& options, WorkloadResult* out) {
  using Fn = void (*)(const Options&, Tracer&, NativeClock&, WorkloadResult*);
  static const std::map<std::string, Fn> kTable = {
      {"lc-search", LcSearch},
      {"fleet-triage", FleetTriage},
      {"service-stream", ServiceStream},
      {"record-load", RecordLoad},
  };
  const auto it = kTable.find(options.workload);
  if (it == kTable.end()) {
    return false;
  }
  Tracer tracer(options.trace);
  NativeClock clock(tracer);
  it->second(options, tracer, clock, out);
  return true;
}

}  // namespace retrace::e2e
