// The serve-mix workload: an in-process server::Server over loopback
// (JIT, 1 query thread, 2 workers), driven by an open loop at a
// fixed offered rate over 4 connections with a seeded two-tenant mix.
#include <algorithm>
#include <cstdio>

#include "bench_stats.h"
#include "harness.h"
#include "serve_client.h"
#include "server/server.h"

namespace qc::perfbench {
namespace {

constexpr int kSetupReps = 9;
constexpr double kLateLimitMs = 5;  // sender lateness (p99) a valid run keeps

// A server and the state it serves; the server goes first on destruction.
struct Live {
  std::unique_ptr<TpchState> st;
  std::unique_ptr<server::Server> srv;
  ~Live() {
    if (srv != nullptr) srv->Stop();
    srv.reset();
    st.reset();
  }
};

// Warm-up traffic: every mix query twice, 2 ms apart, unchecked.
std::vector<Arrival> WarmupSchedule() {
  std::vector<Arrival> s;
  int64_t t = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t ti = 0; ti < ServeMixTenants().size(); ++ti) {
      for (int q : ServeMixTenants()[ti].queries) {
        s.push_back({t, q, static_cast<int>(ti)});
        t += 2000000;
      }
    }
  }
  return s;
}

bool StartLive(Live* live, uint64_t seed, Tracer* tr) {
  live->st = BuildTpchState(seed, tr);
  live->srv = std::make_unique<server::Server>(live->st->db.get(),
                                               ServeMixServerOptions(seed));
  if (!live->srv->Start()) return false;
  {
    Scope s(tr, "server.warm_plans", "server");
    live->srv->WarmPlans();
  }
  RunOpenLoop(live->srv->port(), kServeConns, WarmupSchedule(), nullptr, nullptr);
  return true;
}

PerQuery LatencyByQuery(const PhaseResult& r) {
  PerQuery pq(tpch::kNumQueries);
  for (size_t i = 0; i < r.lat_ms.size(); ++i) {
    pq[static_cast<size_t>(r.lat_query[i] - 1)].push_back(r.lat_ms[i]);
  }
  return pq;
}

double LateP99(const PhaseResult& r) {
  double v = 0;
  if (!TailPercentile(r.late_ms, 99, 0, &v)) return 0;
  return v;
}

}  // namespace

void RunServeMix(const RunOptions& opts, const WorkloadInfo& info,
                 WorkloadRun* out) {
  Tracer tracer;
  Tracer* tr = opts.trace ? &tracer : nullptr;
  // All but the last set-up run in forked children (see TpchWorkload::
  // Setup); the last one's server is the one measured.
  auto live = std::make_unique<Live>();
  auto build = [&] {
    const int64_t t0 = WallNs();
    if (!StartLive(live.get(), opts.seed, tr)) return -1.0;
    return NsToMs(WallNs() - t0) / 1e3;
  };
  std::vector<double> setup;
  for (int r = 1; r < (opts.trace ? 1 : kSetupReps); ++r) {
    setup.push_back(TimeInChild(build));
  }
  setup.push_back(build());
  if (*std::min_element(setup.begin(), setup.end()) < 0) {
    std::fprintf(stderr, "serve-mix: server failed to start\n");
    out->tally.Record(false);
    return;
  }
  AttachOracle(live->st.get());
  const uint64_t sched_seed = opts.seed * 0x2545f4914f6cdd1dULL + 7;
  const int port = live->srv->port();

  if (!opts.trace) {
    std::vector<Arrival> sched =
        OpenLoopSchedule(kServeRatePerS, opts.seconds, ServeMixTenants(),
                         sched_seed);
    PhaseResult res = RunOpenLoop(port, kServeConns, sched, &live->st->oracle,
                                  nullptr);
    out->tally.attempted += static_cast<int64_t>(sched.size());
    out->tally.failed += res.failed;
    const double late = LateP99(res);
    if (late > kLateLimitMs) {
      out->validity.Invalidate("load generator ran late: p99 " +
                               std::to_string(late) + " ms");
    }
    const PerQuery lat = LatencyByQuery(res);
    std::printf("# %s: %zu requests at %.0f/s over %d connections, "
                "%lld ok, loadgen late p99 %.3f ms\n",
                info.name, sched.size(), kServeRatePerS, kServeConns,
                static_cast<long long>(res.ok), late);
    for (int q = 1; q <= tpch::kNumQueries; ++q) {
      const std::vector<double>& v = lat[static_cast<size_t>(q - 1)];
      if (v.empty()) continue;
      double v90 = 0;
      TailPercentile(v, 90, 0, &v90);
      std::printf("#   Q%-2d %zu requests, median %.3f p90 %.3f ms\n", q,
                  v.size(), Median(v), v90);
    }
    out->metrics.Set("setup_s", Median(setup), "s");
    // The median, not the 90th percentile as on the tpch workloads: with
    // requests queueing behind Q9 on two workers, the per-query 90th
    // percentile followed the seed's arrival pattern and the host's free
    // cores (IQR 34% of the median over ten runs, against 10% for the
    // median).
    out->metrics.Set("query_ms", GeomeanOfMedians(lat), "ms");
    out->metrics.Set("cpu_ms",
                     res.ok > 0 ? res.cpu_ms / static_cast<double>(res.ok) : 0,
                     "ms");
    out->metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: layer sweeps on this database (the server sweep starts its
  // own server), then this workload's loop untraced and traced.
  out->metrics.Set("tpch.datagen_s", live->st->datagen_s, "s");
  SweepCompileLayers(live->st.get(), tr, out);
  SweepExecLayers(live->st.get(), tr, out);
  SweepCgen(live->st.get(), opts.out_dir + "/cgen", tr, out);
  SweepServer(live->st.get(), opts.seed, tr, out);
  const double window = std::min(3.0, opts.seconds);
  std::vector<Arrival> sched =
      OpenLoopSchedule(kServeRatePerS, window, ServeMixTenants(), sched_seed);
  PhaseResult plain = RunOpenLoop(port, kServeConns, sched, &live->st->oracle,
                                  nullptr);
  tracer.set_loop_first_op(tracer.NextOp());
  PhaseResult traced = RunOpenLoop(port, kServeConns, sched, &live->st->oracle, tr);
  out->tally.attempted += 2 * static_cast<int64_t>(sched.size());
  out->tally.failed += plain.failed + traced.failed;
  const double base = GeomeanOfMedians(LatencyByQuery(plain));
  const double with = GeomeanOfMedians(LatencyByQuery(traced));
  out->metrics.Set("trace.overhead_pct",
                   base > 0 ? 100.0 * (with - base) / base : 0, "%");
  out->metrics.Set("trace.loop_ops", static_cast<double>(traced.ok), "count");
  FinishTrace(opts, &tracer, out);
}

}  // namespace qc::perfbench
