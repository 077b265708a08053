#include "harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <thread>

#include "jit/engine.h"
#include "server/protocol.h"
#include "tpch/datagen.h"
#include "volcano/volcano.h"

namespace qc::perfbench {

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& it : items_) {
    if (it.first == name) {
      it.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

double Metrics::Get(const std::string& name) const {
  for (const auto& it : items_) {
    if (it.first == name) return it.second.first;
  }
  return 0;
}

double SpinCalibrateCores(int threads, int window_ms) {
  std::atomic<bool> stop{false};
  std::vector<double> cpu_ms(static_cast<size_t>(threads), 0);
  std::vector<std::thread> spinners;
  const int64_t t0 = WallNs();
  for (int i = 0; i < threads; ++i) {
    spinners.emplace_back([&stop, &cpu_ms, i] {
      timespec a, b;
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
      volatile uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) sink = sink + 1;
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
      cpu_ms[static_cast<size_t>(i)] =
          (b.tv_sec - a.tv_sec) * 1e3 + (b.tv_nsec - a.tv_nsec) / 1e6;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
  stop.store(true);
  for (std::thread& t : spinners) t.join();
  const double wall_ms = NsToMs(WallNs() - t0);
  double total = 0;
  for (double c : cpu_ms) total += c;
  return wall_ms > 0 ? total / wall_ms : 0;
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

std::string CpuFlags() {
  std::string flags;
  auto add = [&flags](const char* name, bool on) {
    if (!on) return;
    if (!flags.empty()) flags += ",";
    flags += name;
  };
#if defined(__x86_64__)
  __builtin_cpu_init();
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("popcnt", __builtin_cpu_supports("popcnt"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("bmi2", __builtin_cpu_supports("bmi2"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
#endif
  return flags.empty() ? "none" : flags;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string EnvHeaderJson(const RunOptions& opts, const std::string& why, double cores_start,
                          double cores_end, const Validity& validity) {
  std::string reasons;
  for (const std::string& r : validity.reasons) {
    if (!reasons.empty()) reasons += ",";
    reasons += "\"" + JsonEscape(r) + "\"";
  }
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seed\":%llu,\"sf\":%g,\"seconds\":%g,"
      "\"trace\":%d,\"why\":\"%s\",\"nproc\":%ld,"
      "\"host.cores_start\":%.3f,\"host.cores_end\":%.3f,"
      "\"jit_unavailable_reason\":\"%s\",\"compiler\":\"%s\","
      "\"cpu_flags\":\"%s\",\"valid\":%s,\"invalid_reasons\":[%s]}",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), kSf,
      opts.seconds, opts.trace ? 1 : 0, JsonEscape(why).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), cores_start, cores_end,
      exec::jit::JitFallbackName(exec::jit::JitUnavailableReason()),
      JsonEscape(__VERSION__).c_str(), CpuFlags().c_str(),
      validity.reasons.empty() ? "true" : "false", reasons.c_str());
  return buf;
}

std::unique_ptr<TpchState> BuildTpchState(uint64_t seed, Tracer* tracer) {
  auto st = std::make_unique<TpchState>();
  {
    Scope s(tracer, "tpch.datagen", "tpch");
    const int64_t t0 = WallNs();
    st->db = std::make_unique<storage::Database>(
        tpch::MakeTpchDatabase(kSf, seed));
    st->datagen_s = NsToMs(WallNs() - t0) / 1e3;
  }
  st->queries.resize(tpch::kNumQueries);
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    CompiledQuery& cq = st->queries[static_cast<size_t>(q - 1)];
    cq.q = q;
    {
      Scope s(tracer, "qplan.make", "qplan");
      cq.plan = tpch::MakeQuery(q);
    }
    {
      Scope s(tracer, "qplan.resolve", "qplan");
      qplan::ResolvePlan(cq.plan.get(), *st->db);
    }
    cq.types = std::make_unique<ir::TypeFactory>();
    Scope s(tracer, "compiler.lower_cold", "compiler");
    const int64_t t0 = WallNs();
    compiler::QueryCompiler qc(st->db.get(), cq.types.get());
    cq.res = qc.Compile(*cq.plan, compiler::StackConfig::Level(kLevel),
                        "q" + std::to_string(q));
    cq.cold_ms = NsToMs(WallNs() - t0);
  }
  return st;
}

namespace {

std::vector<std::string>& Oracle() {
  static std::vector<std::string> oracle;
  return oracle;
}

bool WriteAll(int fd, const void* p, size_t n) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    ssize_t w = ::write(fd, c, n);
    if (w <= 0) return false;
    c += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* p, size_t n) {
  char* c = static_cast<char*>(p);
  while (n > 0) {
    ssize_t r = ::read(fd, c, n);
    if (r <= 0) return false;
    c += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// Child side: one length-prefixed rendering per query.
bool WriteOracle(int fd, uint64_t seed) {
  storage::Database db = tpch::MakeTpchDatabase(kSf, seed);
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), db);
    std::string text = server::RenderRows(volcano::Execute(*plan, db));
    uint64_t len = text.size();
    if (!WriteAll(fd, &len, sizeof(len)) ||
        !WriteAll(fd, text.data(), text.size())) {
      return false;
    }
  }
  return true;
}

}  // namespace

double TimeInChild(const std::function<double()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const double secs = fn();
    const bool ok = WriteAll(fds[1], &secs, sizeof(secs));
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  double secs = -1;
  if (!ReadAll(fds[0], &secs, sizeof(secs))) secs = -1;
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? secs : -1;
}

bool PrecomputeOracle(uint64_t seed) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const bool ok = WriteOracle(fds[1], seed);
    ::close(fds[1]);
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  bool ok = true;
  std::vector<std::string>& out = Oracle();
  out.assign(tpch::kNumQueries, std::string());
  for (std::string& text : out) {
    uint64_t len = 0;
    ok = ReadAll(fds[0], &len, sizeof(len)) && len < (1ULL << 32);
    if (!ok) break;
    text.resize(len);
    ok = ReadAll(fds[0], text.data(), len);
    if (!ok) break;
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!ok) out.clear();
  return ok;
}

void AttachOracle(TpchState* st) { st->oracle = Oracle(); }

exec::InterpOptions JitOptions(int threads) {
  exec::InterpOptions o;
  o.engine = exec::InterpOptions::Engine::kJit;
  o.num_threads = threads;
  return o;
}

int ParThreads() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::max(2L, std::min(4L, nproc)));
}

bool MatchesOracle(const TpchState& st, int q,
                   const storage::ResultTable& result) {
  const size_t qi = static_cast<size_t>(q - 1);
  return qi < st.oracle.size() && server::RenderRows(result) == st.oracle[qi];
}

bool RunAdhoc(const TpchState& st, int q, Tracer* tracer, AdhocTimes* times,
              exec::Interpreter::JitRunStats* jit) {
  // Everything the operation builds is held here and destroyed after the
  // clocks stop: tear-down is not part of plan-to-first-result.
  qplan::PlanPtr plan;
  ir::TypeFactory types;
  compiler::CompileResult res;
  std::unique_ptr<exec::Interpreter> interp;
  storage::ResultTable result;
  const int64_t w0 = WallNs();
  const int64_t c0 = CpuNs();
  {
    {
      Scope s(tracer, "qplan.make", "qplan");
      plan = tpch::MakeQuery(q);
    }
    {
      Scope s(tracer, "qplan.resolve", "qplan");
      qplan::ResolvePlan(plan.get(), *st.db);
    }
    {
      Scope s(tracer, "compiler.lower", "compiler");
      compiler::QueryCompiler qc(st.db.get(), &types);
      res = qc.Compile(*plan, compiler::StackConfig::Level(kLevel),
                       "q" + std::to_string(q));
    }
    interp = std::make_unique<exec::Interpreter>(st.db.get(), JitOptions(1));
    // The first Run of a fresh Interpreter translates to bytecode and
    // stitches native code before executing.
    Scope s(tracer, "exec.first_run", "exec");
    result = interp->Run(*res.fn);
  }
  times->total_ms = NsToMs(WallNs() - w0);
  times->cpu_ms = NsToMs(CpuNs() - c0);
  if (jit != nullptr) *jit = interp->last_jit_stats();
  return interp->last_status().ok() && MatchesOracle(st, q, result);
}

}  // namespace qc::perfbench
