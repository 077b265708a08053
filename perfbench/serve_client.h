// Open-loop load generator for the serving daemon: a sender thread issues
// each scheduled request at its due time over a fixed set of loopback
// connections (line protocol, pipelined), while the calling thread reads
// the responses, times each from its due time, and byte-compares each body
// with the oracle.
#ifndef QC_PERFBENCH_SERVE_CLIENT_H_
#define QC_PERFBENCH_SERVE_CLIENT_H_

#include <string>
#include <vector>

#include "bench_stats.h"
#include "harness.h"
#include "server/server.h"

namespace qc::perfbench {

constexpr int kServeConns = 4;
constexpr double kServeRatePerS = 100;  // the fixed offered rate
constexpr double kServeSloMs = 20;      // p99 limit behind qps_at_slo

// The daemon configuration every serve phase uses: JIT, 1 query thread,
// 2 workers, default quotas (none).
server::ServerOptions ServeMixServerOptions(uint64_t seed);

// The serve-mix tenants: a light one sending short aggregations and a heavy
// one sending joins plus the two largest results (Q11, Q16).
const std::vector<Tenant>& ServeMixTenants();
const std::vector<std::string>& ServeMixTenantNames();

struct PhaseResult {
  std::vector<double> lat_ms;   // per answered request, from its due time
  std::vector<int> lat_query;   // query of each lat_ms entry
  std::vector<double> late_ms;  // how late the sender issued each request
  int64_t ok = 0;
  int64_t failed = 0;           // ERR responses, mismatches, no response
  // Process CPU over the phase minus the CPU of the generator's own sender
  // and receiver threads: the server's share (workers, event loop, query
  // threads).
  double cpu_ms = 0;
  bool backlog_grew = false;    // latency kept rising through the phase
};

// Runs `sched` against the server on `port` over `conns` connections.
// With `oracle` null the bodies are not checked (warm-up traffic).
PhaseResult RunOpenLoop(int port, int conns, const std::vector<Arrival>& sched,
                        const std::vector<std::string>* oracle, Tracer* tr);

}  // namespace qc::perfbench

#endif  // QC_PERFBENCH_SERVE_CLIENT_H_
