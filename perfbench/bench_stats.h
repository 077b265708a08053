// Statistics and scheduling helpers of the perfbench harness. Header-only
// (the one include, common/rng.h, is header-only too) so
// perfbench/bench_stats_test.cc can pin each definition down exactly.
#ifndef QC_PERFBENCH_BENCH_STATS_H_
#define QC_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace qc::perfbench {

// Median of `v` (mean of the two middle values for an even count); 0 for an
// empty sample.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Geometric mean of strictly positive values; 0 when `v` is empty or holds
// a non-positive value (a geomean over it is undefined).
inline double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// The p-th percentile (0 < p < 100) as the nearest-rank order statistic,
// but only when at least `min_beyond` samples lie strictly above that rank:
// a tail percentile read off fewer samples is one outlier, not a tail.
// Returns false (and leaves *out alone) when the sample is too small.
inline bool TailPercentile(std::vector<double> v, double p, size_t min_beyond,
                           double* out) {
  if (v.empty() || p <= 0 || p >= 100) return false;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  // Nearest rank: the smallest value with at least p% of samples <= it.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  if (rank == 0) rank = 1;
  size_t beyond = n - rank;
  if (beyond < min_beyond) return false;
  *out = v[rank - 1];
  return true;
}

// Samples per query: entry i holds the timings of one query. Empty entries
// (queries a workload does not run) are skipped by the summaries below.
using PerQuery = std::vector<std::vector<double>>;

// Geomean over queries of each query's median.
inline double GeomeanOfMedians(const PerQuery& pq) {
  std::vector<double> med;
  for (const std::vector<double>& v : pq) {
    if (!v.empty()) med.push_back(Median(v));
  }
  return Geomean(med);
}

// Geomean over queries of each query's p-th percentile, each with at least
// `min_beyond` samples beyond it. Returns false when some query has too few
// samples; its largest sample then stands in for its percentile.
inline bool GeomeanOfTails(const PerQuery& pq, double p, size_t min_beyond,
                           double* out) {
  bool ok = true;
  std::vector<double> tails;
  for (const std::vector<double>& v : pq) {
    if (v.empty()) continue;
    double t = 0;
    if (!TailPercentile(v, p, min_beyond, &t)) {
      ok = false;
      t = *std::max_element(v.begin(), v.end());
    }
    tails.push_back(t);
  }
  *out = Geomean(tails);
  return ok;
}

// One arrival of an open-loop load generator.
struct Arrival {
  int64_t due_ns = 0;  // offset from the start of the phase
  int query = 0;
  int tenant = 0;  // index into the caller's tenant list
};

// A tenant of the serving mix: the queries it sends and its share of the
// offered load (shares are relative weights).
struct Tenant {
  std::vector<int> queries;
  double share = 1;
};

// Open-loop schedule at `rate_per_s` over `seconds`: each gap between
// arrivals is drawn uniformly from [0.5, 1.5] times the mean gap, and each
// arrival draws a tenant by share and a query uniformly from that tenant's
// list. Depends only on the arguments, so one seed always yields one
// schedule, and arrivals never depend on how fast earlier requests were
// answered. The gaps are bounded rather than exponential: Poisson bursts
// made the latency tail depend more on the seed's arrival pattern than on
// the server.
inline std::vector<Arrival> OpenLoopSchedule(double rate_per_s,
                                             double seconds,
                                             const std::vector<Tenant>& mix,
                                             uint64_t seed) {
  std::vector<Arrival> out;
  if (!(rate_per_s > 0) || !(seconds > 0) || mix.empty()) return out;
  double share_sum = 0;
  for (const Tenant& t : mix) share_sum += t.share;
  Rng rng(seed);
  const double horizon_ns = seconds * 1e9;
  double t_ns = 0;
  for (;;) {
    t_ns += rng.UniformDouble(0.5, 1.5) / rate_per_s * 1e9;
    if (t_ns >= horizon_ns) break;
    double pick = rng.UniformDouble(0, share_sum);
    size_t ti = 0;
    while (ti + 1 < mix.size() && pick >= mix[ti].share) {
      pick -= mix[ti].share;
      ++ti;
    }
    const std::vector<int>& qs = mix[ti].queries;
    Arrival a;
    a.due_ns = static_cast<int64_t>(t_ns);
    a.tenant = static_cast<int>(ti);
    a.query = qs[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(qs.size()) - 1))];
    out.push_back(a);
  }
  return out;
}

// Fisher-Yates shuffle driven by qc::Rng (std::shuffle's draw sequence is
// library-specific; this one is fixed by the seed alone).
template <typename T>
void SeededShuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

}  // namespace qc::perfbench

#endif  // QC_PERFBENCH_BENCH_STATS_H_
