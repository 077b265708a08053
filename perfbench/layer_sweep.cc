// Per-layer measurements of the traced run. Each sweep times calls into one
// layer's public functions from the outside, on the workload's database,
// and checks every result it produces against the Volcano oracle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "bench_stats.h"
#include "cgen/cc_driver.h"
#include "cgen/emit.h"
#include "exec/bytecode.h"
#include "harness.h"
#include "ir/parallel.h"
#include "jit/engine.h"
#include "serve_client.h"
#include "server/plan_cache.h"
#include "server/protocol.h"
#include "server/server.h"

namespace qc::perfbench {
namespace {

constexpr int kCompileRounds = 5;
constexpr int kExecRounds = 7;
constexpr int kCgenRuns = 3;
constexpr int kServeProbeReps = 200;
constexpr double kServeFixedSeconds = 3;
constexpr int kLadderRequests = 1000;  // 10 samples beyond p99
const double kLadderRates[] = {200, 400, 800, 1600};

// Compiler phases reported one by one (QueryCompiler's phase_ms names).
const char* const kPhases[] = {
    "pipelining",          "string-dict",          "index-inference",
    "hash-specialization", "pool-hoisting",        "scalar-replacement",
    "condition-flattening", "finalize",
};

PerQuery NewPerQuery() { return PerQuery(tpch::kNumQueries); }

std::vector<double> Medians(const PerQuery& pq) {
  std::vector<double> out;
  for (const std::vector<double>& v : pq) out.push_back(Median(v));
  return out;
}

std::string PhaseMetric(const std::string& phase) {
  std::string n = phase;
  std::replace(n.begin(), n.end(), '-', '_');
  return "compiler.phase." + n + "_ms";
}

std::string QueryMetric(int q, const char* what) {
  return "q" + std::to_string(q) + "." + what;
}

}  // namespace

void SweepCompileLayers(TpchState* st, Tracer* tr, WorkloadRun* out) {
  PerQuery resolve = NewPerQuery(), lower = NewPerQuery(),
           bc = NewPerQuery(), stitch = NewPerQuery();
  std::map<std::string, PerQuery> phases;
  for (const char* p : kPhases) phases[p] = NewPerQuery();
  double ir_stmts = 0, insns = 0, code_bytes = 0;
  int64_t stitch_fallbacks = 0;
  for (int round = 0; round < kCompileRounds; ++round) {
    for (int q = 1; q <= tpch::kNumQueries; ++q) {
      const size_t qi = static_cast<size_t>(q - 1);
      qplan::PlanPtr plan = tpch::MakeQuery(q);
      int64_t t0 = WallNs();
      {
        Scope s(tr, "qplan.resolve", "qplan");
        qplan::ResolvePlan(plan.get(), *st->db);
      }
      resolve[qi].push_back(NsToMs(WallNs() - t0));
      ir::TypeFactory types;
      compiler::CompileResult res;
      t0 = WallNs();
      {
        Scope s(tr, "compiler.lower", "compiler");
        compiler::QueryCompiler qc(st->db.get(), &types);
        res = qc.Compile(*plan, compiler::StackConfig::Level(kLevel),
                         "q" + std::to_string(q));
      }
      lower[qi].push_back(NsToMs(WallNs() - t0));
      for (const auto& [name, ms] : res.phase_ms) {
        auto it = phases.find(name);
        if (it != phases.end()) it->second[qi].push_back(ms);
      }
      ir::ParallelInfo par;
      exec::BytecodeProgram prog;
      t0 = WallNs();
      {
        Scope s(tr, "bytecode.compile", "bytecode");
        par = ir::AnalyzeParallelism(*res.fn);
        prog = exec::BytecodeCompiler(st->db.get()).Compile(*res.fn, &par);
      }
      bc[qi].push_back(NsToMs(WallNs() - t0));
      exec::jit::JitFallback why = exec::jit::JitFallback::kNone;
      std::unique_ptr<exec::jit::JitProgram> jp;
      t0 = WallNs();
      {
        Scope s(tr, "jit.stitch", "jit");
        jp = exec::jit::JitProgram::Compile(prog, &why);
      }
      stitch[qi].push_back(NsToMs(WallNs() - t0));
      if (round == 0) {
        ir_stmts += res.fn->num_stmts();
        insns += static_cast<double>(prog.code.size());
        if (jp != nullptr) {
          code_bytes += static_cast<double>(jp->code_bytes());
        } else {
          ++stitch_fallbacks;
        }
      }
    }
  }
  double cold = 0;
  std::vector<double> warm = Medians(lower);
  for (const CompiledQuery& cq : st->queries) {
    cold += std::max(0.0, cq.cold_ms - warm[static_cast<size_t>(cq.q - 1)]);
  }
  out->metrics.Set("storage.cold_lower_ms", cold, "ms");
  out->metrics.Set("qplan.resolve_ms", GeomeanOfMedians(resolve), "ms");
  out->metrics.Set("compiler.lower_ms", GeomeanOfMedians(lower), "ms");
  for (const char* p : kPhases) {
    // Summed over the 22 queries: a phase can be near zero on some.
    std::vector<double> med = Medians(phases[p]);
    double sum = 0;
    for (double m : med) sum += m;
    out->metrics.Set(PhaseMetric(p), sum, "ms");
  }
  out->metrics.Set("compiler.ir_stmts", ir_stmts, "count");
  out->metrics.Set("bytecode.compile_ms", GeomeanOfMedians(bc), "ms");
  out->metrics.Set("bytecode.insns", insns, "count");
  out->metrics.Set("jit.stitch_ms", GeomeanOfMedians(stitch), "ms");
  out->metrics.Set("jit.code_bytes", code_bytes, "bytes");
  if (stitch_fallbacks > 0) {
    out->validity.Invalidate("JitProgram::Compile returned null on " +
                             std::to_string(stitch_fallbacks) + " queries");
  }
}

void SweepExecLayers(TpchState* st, Tracer* tr, WorkloadRun* out) {
  const int threads = ParThreads();
  exec::InterpOptions vm_opts;
  vm_opts.engine = exec::InterpOptions::Engine::kBytecode;
  exec::Interpreter jit1(st->db.get(), JitOptions(1));
  exec::Interpreter vm(st->db.get(), vm_opts);
  exec::Interpreter jitn(st->db.get(), JitOptions(threads));
  PerQuery jit_wall = NewPerQuery(), jit_cpu = NewPerQuery(),
           vm_wall = NewPerQuery(), par_cpu = NewPerQuery(),
           par_wall = NewPerQuery();
  PerQuery vm_cpu = NewPerQuery();
  int64_t fallbacks = 0;
  double native_pcs = 0, total_pcs = 0, deopts = 0;
  // One engine at a time, so each meets the caches the way a loop running
  // only that engine does. Every program is warmed first: translation and
  // stitching are not timed here.
  auto pass = [&](exec::Interpreter& in, const char* span, bool jit,
                  PerQuery* wall, PerQuery* cpu) {
    for (const CompiledQuery& cq : st->queries) in.Run(*cq.res.fn);
    for (int round = 0; round < kExecRounds; ++round) {
      for (const CompiledQuery& cq : st->queries) {
        const size_t qi = static_cast<size_t>(cq.q - 1);
        storage::ResultTable r;
        const int64_t w0 = WallNs(), c0 = CpuNs();
        {
          Scope s(tr, span, "exec");
          r = in.Run(*cq.res.fn);
        }
        (*wall)[qi].push_back(NsToMs(WallNs() - w0));
        (*cpu)[qi].push_back(NsToMs(CpuNs() - c0));
        out->tally.Record(in.last_status().ok() && MatchesOracle(*st, cq.q, r));
        if (!jit) continue;
        const exec::Interpreter::JitRunStats& js = in.last_jit_stats();
        if (!js.jitted || js.fallback_reason != 0) ++fallbacks;
        if (round == 0 && &in == &jit1) {
          native_pcs += js.native_pcs;
          total_pcs += js.total_pcs;
          deopts += static_cast<double>(js.deopts);
        }
      }
    }
  };
  pass(jit1, "exec.run", true, &jit_wall, &jit_cpu);
  pass(vm, "exec.run_vm", false, &vm_wall, &vm_cpu);
  pass(jitn, "exec.run_par", true, &par_wall, &par_cpu);
  // Allocation accounting of one run per query on a fresh Interpreter.
  double alloc_bytes = 0, heap_allocs = 0;
  for (const CompiledQuery& cq : st->queries) {
    exec::Interpreter fresh(st->db.get(), JitOptions(1));
    fresh.Run(*cq.res.fn);
    alloc_bytes += static_cast<double>(fresh.stats().TotalBytes());
    heap_allocs += static_cast<double>(fresh.stats().heap_allocs);
  }
  std::vector<double> jit_med = Medians(jit_wall);
  std::vector<double> cpu1 = Medians(jit_cpu);
  std::vector<double> cpun = Medians(par_cpu);
  std::vector<double> inflation;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    const size_t qi = static_cast<size_t>(q - 1);
    out->metrics.Set(QueryMetric(q, "query_ms"), jit_med[qi], "ms");
    out->metrics.Set(QueryMetric(q, "cpu_ms"), cpun[qi], "ms");
    inflation.push_back(cpu1[qi] > 0 ? cpun[qi] / cpu1[qi] : 0);
  }
  out->metrics.Set("jit.query_ms", Geomean(jit_med), "ms");
  out->metrics.Set("jit.coverage_pct",
                   total_pcs > 0 ? 100.0 * native_pcs / total_pcs : 0, "%");
  out->metrics.Set("jit.deopts", deopts, "count");
  out->metrics.Set("jit.fallbacks", static_cast<double>(fallbacks), "count");
  if (fallbacks > 0) {
    out->validity.Invalidate("jit.fallbacks = " + std::to_string(fallbacks));
  }
  out->metrics.Set("vm.query_ms", GeomeanOfMedians(vm_wall), "ms");
  out->metrics.Set("exec.alloc_bytes", alloc_bytes, "bytes");
  out->metrics.Set("exec.heap_allocs", heap_allocs, "count");
  out->metrics.Set("par.work_inflation", Geomean(inflation), "x");
  out->metrics.Set("par.work_inflation_max",
                   *std::max_element(inflation.begin(), inflation.end()), "x");
  out->metrics.Set("par.wall_ms", GeomeanOfMedians(par_wall), "ms");
  out->metrics.Set("par.threads", threads, "count");
}

void SweepCgen(TpchState* st, const std::string& work_dir, Tracer* tr,
               WorkloadRun* out) {
  const std::string data_dir = work_dir + "/data";
  std::error_code ec;
  std::filesystem::create_directories(data_dir, ec);
  std::filesystem::create_directories(work_dir + "/cc", ec);
  {
    Scope s(tr, "cgen.export", "cgen");
    st->db->ExportBinary(data_dir);
  }
  cgen::CcDriver driver(work_dir + "/cc");
  PerQuery ms = NewPerQuery();
  bool all_ok = true;
  for (const CompiledQuery& cq : st->queries) {
    const size_t qi = static_cast<size_t>(cq.q - 1);
    std::string bin;
    {
      Scope s(tr, "cgen.emit_cc", "cgen");
      std::string src = cgen::EmitProgram(*cq.res.fn, *st->db, data_dir);
      cgen::ExportAux(*st->db, data_dir);
      double cc_ms = 0;
      std::string error;
      bin = driver.Compile("q" + std::to_string(cq.q), src, &cc_ms, &error);
      if (bin.empty()) {
        std::fprintf(stderr, "cgen: Q%d failed to compile: %s\n", cq.q,
                     error.c_str());
        out->tally.Record(false);
      }
    }
    for (int r = 0; r < kCgenRuns && !bin.empty(); ++r) {
      cgen::RunOutput ro;
      {
        Scope s(tr, "cgen.run", "cgen");
        ro = driver.Run(bin);
      }
      std::string text;
      for (const std::string& row : ro.row_text) text += row + "\n";
      const bool ok =
          ro.ok && qi < st->oracle.size() && text == st->oracle[qi];
      out->tally.Record(ok);
      if (ok) ms[qi].push_back(ro.query_ms);
    }
    if (ms[qi].empty()) all_ok = false;
  }
  // The generated program reports its own query time, excluding process
  // start and column loading; a sub-resolution 0 would void the geomean.
  std::vector<double> med = Medians(ms);
  for (double& m : med) m = std::max(m, 0.001);
  const double cgen = all_ok ? Geomean(med) : 0;
  out->metrics.Set("cgen.query_ms", cgen, "ms");
  const double jit = out->metrics.Get("jit.query_ms");
  out->metrics.Set("jit.gap", cgen > 0 ? jit / cgen : 0, "x");
}

void SweepServer(TpchState* st, uint64_t seed, Tracer* tr, WorkloadRun* out) {
  const uint64_t sched_seed = seed * 0x9e3779b97f4a7c15ULL + 11;
  {
    server::Server srv(st->db.get(), ServeMixServerOptions(seed));
    if (!srv.Start()) {
      std::fprintf(stderr, "server sweep: server failed to start\n");
      out->tally.Record(false);
      return;
    }
    srv.WarmPlans();
    const server::ServerStats& stats = srv.stats();
    auto shed_total = [&stats] {
      return static_cast<double>(
          stats.shed_queue_full.load() + stats.shed_queue_deadline.load() +
          stats.shed_draining.load() + stats.shed_quota.load() +
          stats.shed_client_queue.load());
    };
    std::vector<uint64_t> buckets;
    uint64_t n0 = 0, n1 = 0;
    double sum0 = 0, sum1 = 0;
    stats.request_ms.Read(&buckets, &n0, &sum0);
    const double shed0 = shed_total();
    const double retries0 = static_cast<double>(stats.retries.load());
    const double down0 = static_cast<double>(stats.downshifts.load());

    std::vector<Arrival> sched = OpenLoopSchedule(
        kServeRatePerS, kServeFixedSeconds, ServeMixTenants(), sched_seed);
    PhaseResult fixed =
        RunOpenLoop(srv.port(), kServeConns, sched, &st->oracle, tr);
    out->tally.attempted += static_cast<int64_t>(sched.size());
    out->tally.failed += fixed.failed;
    stats.request_ms.Read(&buckets, &n1, &sum1);
    const double worker_ms = n1 > n0 ? (sum1 - sum0) / (n1 - n0) : 0;
    double client_mean = 0;
    for (double v : fixed.lat_ms) client_mean += v;
    if (!fixed.lat_ms.empty()) client_mean /= fixed.lat_ms.size();
    double late = 0;
    TailPercentile(fixed.late_ms, 99, 0, &late);
    out->metrics.Set("server.worker_ms", worker_ms, "ms");
    out->metrics.Set("server.outside_ms", client_mean - worker_ms, "ms");
    out->metrics.Set("server.shed", shed_total() - shed0, "count");
    out->metrics.Set("server.retries",
                     static_cast<double>(stats.retries.load()) - retries0,
                     "count");
    out->metrics.Set("server.downshifts",
                     static_cast<double>(stats.downshifts.load()) - down0,
                     "count");
    out->metrics.Set("loadgen.late_p99_ms", late, "ms");

    // Ladder: the highest rate whose p99 stays within the SLO with no
    // failure and no growing backlog. Over-capacity rungs are expected to
    // shed, so they are not counted against the run.
    double qps_at_slo = 0;
    for (double rate : kLadderRates) {
      // Twice the expected span, cut to exactly kLadderRequests arrivals.
      std::vector<Arrival> rung = OpenLoopSchedule(
          rate, 2.0 * kLadderRequests / rate, ServeMixTenants(),
          sched_seed + 1);
      rung.resize(std::min(rung.size(), static_cast<size_t>(kLadderRequests)));
      PhaseResult res = RunOpenLoop(srv.port(), kServeConns, rung,
                                    &st->oracle, nullptr);
      double p99 = 0;
      const bool tail_ok =
          TailPercentile(res.lat_ms, 99, 10, &p99) && p99 <= kServeSloMs;
      std::printf("# ladder %.0f/s: %zu requests, %lld failed, p99 %.3f ms%s\n",
                  rate, rung.size(), static_cast<long long>(res.failed), p99,
                  res.backlog_grew ? ", backlog grew" : "");
      if (res.failed > 0 || !tail_ok || res.backlog_grew) break;
      qps_at_slo = rate;
    }
    out->metrics.Set("serve.qps_at_slo20ms", qps_at_slo, "1/s");
    srv.Stop();
  }

  // Plan lookup and rendering, timed directly on the same database.
  server::PlanCache cache(st->db.get());
  cache.Warm(kLevel);
  exec::Interpreter interp(st->db.get(), JitOptions(1));
  std::vector<double> lookup_ms, render_ms;
  for (const Tenant& t : ServeMixTenants()) {
    for (int q : t.queries) {
      std::string error;
      std::vector<double> lk, rd;
      const ir::Function* fn = nullptr;
      for (int r = 0; r < kServeProbeReps; ++r) {
        const int64_t t0 = WallNs();
        fn = cache.Get(q, kLevel, &error);
        lk.push_back(NsToMs(WallNs() - t0));
      }
      if (fn == nullptr) {
        std::fprintf(stderr, "server sweep: no plan for Q%d: %s\n", q,
                     error.c_str());
        out->tally.Record(false);
        continue;
      }
      storage::ResultTable result = interp.Run(*fn);
      out->tally.Record(MatchesOracle(*st, q, result));
      server::ResponseMeta meta;
      meta.rows = static_cast<int64_t>(result.size());
      meta.engine = "jit";
      for (int r = 0; r < kServeProbeReps / 10; ++r) {
        const int64_t t0 = WallNs();
        std::string wire = server::RenderResponse(
            false, meta, server::RenderRows(result));
        rd.push_back(NsToMs(WallNs() - t0));
      }
      lookup_ms.push_back(Median(lk));
      render_ms.push_back(Median(rd));
    }
  }
  double lk_mean = 0, rd_mean = 0;
  for (double v : lookup_ms) lk_mean += v;
  for (double v : render_ms) rd_mean += v;
  const double probes = std::max<double>(1, lookup_ms.size());
  out->metrics.Set("server.plan_lookup_ms", lk_mean / probes, "ms");
  out->metrics.Set("server.render_ms", rd_mean / probes, "ms");
}

namespace {

// Layers whose self time the rollup reports (every layer the workloads'
// own loops call into; "op" is the harness's own share of an operation).
const char* const kRollupLayers[] = {"op", "qplan", "compiler", "exec",
                                     "serve"};

}  // namespace

void FinishTrace(const RunOptions& opts, Tracer* tracer, WorkloadRun* out) {
  std::vector<Span> spans = tracer->recorder().Snapshot();
  const uint64_t first = tracer->loop_first_op();
  std::map<std::string, int64_t> self = SelfTimeByLayer(
      spans, [first](const Span& s) { return s.op >= first; });
  const double ops = std::max(1.0, out->metrics.Get("trace.loop_ops"));
  for (const char* layer : kRollupLayers) {
    out->metrics.Set(std::string("self.") + layer + "_ms",
                     NsToMs(self[layer]) / ops, "ms");
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  const std::string path = opts.out_dir + "/trace-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  if (WriteChromeTrace(path, spans)) {
    std::printf("# spans: %zu written to %s\n", spans.size(), path.c_str());
  } else {
    std::fprintf(stderr, "cannot write span file %s\n", path.c_str());
    out->tally.Record(false);
  }
}

}  // namespace qc::perfbench
