// The three closed-loop TPC-H workloads:
//   tpch-seq    warm JIT execution at 1 thread;
//   tpch-adhoc  plan-to-first-result on a warm Database;
//   tpch-par    the tpch-seq inputs at 4 threads.
// Every round runs all 22 queries once, in an order drawn from the seed.
#include <algorithm>
#include <cstdio>

#include "bench_stats.h"
#include "harness.h"
#include "jit/engine.h"

namespace qc::perfbench {
namespace {

constexpr int kSetupReps = 9;
// The gated timings of the 1-thread workloads are per-query 90th
// percentiles (100 samples per query suffice for 10 beyond): on a shared
// host the median moves with the share of a run spent in fast phases,
// while the 90th percentile stays in the contended mode that every run
// sees. tpch-par reports per-query medians instead: the tail of a 4-thread
// run follows the cores the host grants at that moment (perfbench/
// README.md, "Noise").
constexpr double kTailPct = 90;
constexpr size_t kTailBeyond = 10;

enum class Kind { kSeq, kAdhoc, kPar };

struct Samples {
  PerQuery wall_ms{tpch::kNumQueries};
  PerQuery cpu_ms{tpch::kNumQueries};
  int rounds = 0;
};

class TpchWorkload {
 public:
  TpchWorkload(Kind kind, const RunOptions& opts) : kind_(kind), opts_(opts) {}

  // Builds the state `reps` times from scratch and returns each set-up's
  // seconds. All but the last build run in forked children, so repeated
  // builds leave no trace in this process's heap or peak RSS; the last is
  // kept.
  std::vector<double> Setup(int reps, Tracer* tr) {
    auto build = [this, tr] {
      const int64_t t0 = WallNs();
      st_ = BuildTpchState(opts_.seed, tr);
      WarmUp(tr);
      return NsToMs(WallNs() - t0) / 1e3;
    };
    std::vector<double> secs;
    for (int r = 1; r < reps; ++r) secs.push_back(TimeInChild(build));
    secs.push_back(build());
    return secs;
  }

  TpchState* state() { return st_.get(); }

  // Rounds of all 22 queries until `seconds` have passed (whole rounds).
  Samples Loop(double seconds, Tracer* tr, Rng* order_rng, Tally* tally,
               Validity* validity) {
    Samples s;
    std::vector<int> order;
    for (int q = 1; q <= tpch::kNumQueries; ++q) order.push_back(q);
    const int64_t end = WallNs() + static_cast<int64_t>(seconds * 1e9);
    do {
      SeededShuffle(&order, order_rng);
      std::vector<bool> ok(tpch::kNumQueries);
      std::vector<double> wall(tpch::kNumQueries), cpu(tpch::kNumQueries);
      for (int q : order) {
        const size_t qi = static_cast<size_t>(q - 1);
        ok[qi] = Op(q, tr, &wall[qi], &cpu[qi], validity);
      }
      for (size_t qi = 0; qi < ok.size(); ++qi) {
        tally->Record(ok[qi]);
        s.wall_ms[qi].push_back(wall[qi]);
        s.cpu_ms[qi].push_back(cpu[qi]);
      }
      ++s.rounds;
    } while (WallNs() < end);
    return s;
  }

 private:
  void WarmUp(Tracer* tr) {
    if (kind_ == Kind::kAdhoc) {
      for (int q = 1; q <= tpch::kNumQueries; ++q) {
        AdhocTimes t;
        RunAdhoc(*st_, q, tr, &t, nullptr);
      }
      return;
    }
    interp_ = std::make_unique<exec::Interpreter>(
        st_->db.get(), JitOptions(kind_ == Kind::kPar ? ParThreads() : 1));
    for (const CompiledQuery& cq : st_->queries) {
      Scope s(tr, "exec.warmup", "exec");
      interp_->Run(*cq.res.fn);
    }
  }

  void NoteJit(const exec::Interpreter::JitRunStats& js, int q,
               Validity* validity) {
    if (js.jitted && js.fallback_reason == 0) return;
    if (fallbacks_++ == 0) {
      validity->Invalidate("jit fallback on Q" + std::to_string(q) + ": " +
                           exec::jit::JitFallbackName(
                               static_cast<exec::jit::JitFallback>(
                                   js.fallback_reason)));
    }
  }

  // One timed run of query q: ad hoc, or warm on the workload's
  // interpreter (1 thread on tpch-seq, ParThreads() on tpch-par).
  bool Op(int q, Tracer* tr, double* wall, double* cpu, Validity* validity) {
    if (kind_ == Kind::kAdhoc) {
      AdhocTimes t;
      exec::Interpreter::JitRunStats js;
      bool ok;
      {
        OpScope op(tr, "op.tpch-adhoc");
        ok = RunAdhoc(*st_, q, tr, &t, &js);
      }
      NoteJit(js, q, validity);
      *wall = t.total_ms;
      *cpu = t.cpu_ms;
      return ok;
    }
    const bool par = kind_ == Kind::kPar;
    exec::Interpreter& in = *interp_;
    storage::ResultTable r;
    {
      OpScope op(tr, par ? "op.tpch-par" : "op.tpch-seq");
      Scope s(tr, par ? "exec.run_par" : "exec.run", "exec");
      const int64_t w0 = WallNs();
      const int64_t c0 = CpuNs();
      r = in.Run(*st_->queries[static_cast<size_t>(q - 1)].res.fn);
      *wall = NsToMs(WallNs() - w0);
      *cpu = NsToMs(CpuNs() - c0);
    }
    NoteJit(in.last_jit_stats(), q, validity);
    return in.last_status().ok() && MatchesOracle(*st_, q, r);
  }

  Kind kind_;
  RunOptions opts_;
  std::unique_ptr<TpchState> st_;
  std::unique_ptr<exec::Interpreter> interp_;  // JIT; null on tpch-adhoc
  int64_t fallbacks_ = 0;
};

}  // namespace

void RunTpchWorkload(const RunOptions& opts, const WorkloadInfo& info,
                     WorkloadRun* out) {
  const std::string name = info.name;
  const Kind kind = name == "tpch-adhoc" ? Kind::kAdhoc
                    : name == "tpch-par" ? Kind::kPar
                                         : Kind::kSeq;
  TpchWorkload w(kind, opts);
  Rng order_rng(opts.seed * 0x9e3779b97f4a7c15ULL + 1);

  if (!opts.trace) {
    std::vector<double> setup = w.Setup(kSetupReps, nullptr);
    if (*std::min_element(setup.begin(), setup.end()) < 0) {
      std::fprintf(stderr, "%s: a set-up child failed\n", info.name);
      out->tally.Record(false);
    }
    AttachOracle(w.state());
    Samples s = w.Loop(opts.seconds, nullptr, &order_rng, &out->tally,
                       &out->validity);
    double wall = 0, cpu = 0;
    if (kind == Kind::kPar) {
      wall = GeomeanOfMedians(s.wall_ms);
      cpu = GeomeanOfMedians(s.cpu_ms);
    } else {
      bool enough = GeomeanOfTails(s.wall_ms, kTailPct, kTailBeyond, &wall);
      enough = GeomeanOfTails(s.cpu_ms, kTailPct, kTailBeyond, &cpu) && enough;
      if (!enough) {
        out->validity.Invalidate("fewer than 100 samples per query");
      }
    }
    std::printf("# %s: %d rounds (samples per query); geomean of medians: "
                "wall %.3f ms, cpu %.3f ms\n",
                info.name, s.rounds, GeomeanOfMedians(s.wall_ms),
                GeomeanOfMedians(s.cpu_ms));
    for (int q = 1; q <= tpch::kNumQueries; ++q) {
      const size_t qi = static_cast<size_t>(q - 1);
      double w90 = 0, c90 = 0;
      TailPercentile(s.wall_ms[qi], kTailPct, 0, &w90);
      TailPercentile(s.cpu_ms[qi], kTailPct, 0, &c90);
      std::printf("#   Q%-2d wall median %.3f p90 %.3f ms, cpu median %.3f "
                  "p90 %.3f ms\n",
                  q, Median(s.wall_ms[qi]), w90, Median(s.cpu_ms[qi]), c90);
    }
    out->metrics.Set("setup_s", Median(setup), "s");
    out->metrics.Set("query_ms", wall, "ms");
    out->metrics.Set("cpu_ms", cpu, "ms");
    out->metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: one traced set-up, the layer sweeps, then the workload's
  // own loop untraced and traced for the overhead line.
  Tracer tracer;
  w.Setup(1, &tracer);
  TpchState* st = w.state();
  AttachOracle(st);
  out->metrics.Set("tpch.datagen_s", st->datagen_s, "s");
  SweepCompileLayers(st, &tracer, out);
  SweepExecLayers(st, &tracer, out);
  SweepCgen(st, opts.out_dir + "/cgen", &tracer, out);
  SweepServer(st, opts.seed, &tracer, out);
  const double window = std::min(3.0, opts.seconds);
  Samples plain = w.Loop(window, nullptr, &order_rng, &out->tally,
                         &out->validity);
  tracer.set_loop_first_op(tracer.NextOp());
  Samples traced = w.Loop(window, &tracer, &order_rng, &out->tally,
                          &out->validity);
  const bool cpu_side = kind == Kind::kPar;
  const double base = GeomeanOfMedians(cpu_side ? plain.cpu_ms : plain.wall_ms);
  const double with = GeomeanOfMedians(cpu_side ? traced.cpu_ms
                                                : traced.wall_ms);
  out->metrics.Set("trace.overhead_pct",
                   base > 0 ? 100.0 * (with - base) / base : 0, "%");
  out->metrics.Set("trace.loop_ops", traced.rounds * tpch::kNumQueries,
                   "count");
  FinishTrace(opts, &tracer, out);
}

}  // namespace qc::perfbench
