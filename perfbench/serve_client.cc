#include "serve_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

namespace qc::perfbench {
namespace {

// A response must arrive within this long after the last due time.
constexpr int64_t kDrainNs = 30LL * 1000000000;

int ConnectTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in a;
  std::memset(&a, 0, sizeof(a));
  a.sin_family = AF_INET;
  a.sin_port = htons(static_cast<uint16_t>(port));
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& s) {
  const char* p = s.data();
  size_t left = s.size();
  while (left > 0) {
    ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n <= 0) return false;
    p += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

struct Pending {
  int64_t due_abs_ns = 0;
  int query = 0;
};

struct Conn {
  int fd = -1;
  std::mutex mu;                // guards fifo
  std::deque<Pending> fifo;     // sent, not yet answered, in send order
  std::string inbuf;            // receiver thread only
};

// Splits one complete line-protocol response off the front of `buf`.
// Returns false when `buf` holds no complete response yet; otherwise sets
// *ok (an "OK" response) and *body (the rendered rows).
bool TakeResponse(std::string* buf, bool* ok, std::string* body) {
  size_t eol = buf->find('\n');
  if (eol == std::string::npos) return false;
  if (buf->compare(0, 3, "OK ") != 0) {
    // ERR line (or anything unexpected): one line, no body.
    *ok = false;
    body->clear();
    buf->erase(0, eol + 1);
    return true;
  }
  // "OK ...\n" + rows + ".\n"; the rows never contain a lone "." line.
  size_t end;
  size_t body_lo = eol + 1;
  if (buf->compare(body_lo, 2, ".\n") == 0) {
    end = body_lo;
  } else {
    size_t t = buf->find("\n.\n", body_lo);
    if (t == std::string::npos) return false;
    end = t + 1;
  }
  *ok = true;
  body->assign(*buf, body_lo, end - body_lo);
  buf->erase(0, end + 2);
  return true;
}

}  // namespace

server::ServerOptions ServeMixServerOptions(uint64_t seed) {
  server::ServerOptions o;
  o.port = 0;
  o.workers = 2;
  o.query_threads = 1;
  o.queue_capacity = 256;
  o.default_jit = true;
  o.seed = seed;
  return o;
}

const std::vector<Tenant>& ServeMixTenants() {
  static const std::vector<Tenant> kMix = {
      {{1, 6, 14}, 1.0},
      {{3, 9, 12, 18, 11, 16}, 1.0},
  };
  return kMix;
}

const std::vector<std::string>& ServeMixTenantNames() {
  static const std::vector<std::string> kNames = {"light", "heavy"};
  return kNames;
}

PhaseResult RunOpenLoop(int port, int conns, const std::vector<Arrival>& sched,
                        const std::vector<std::string>* oracle, Tracer* tr) {
  PhaseResult out;
  std::vector<std::unique_ptr<Conn>> cs;
  for (int i = 0; i < conns; ++i) {
    cs.push_back(std::make_unique<Conn>());
    cs.back()->fd = ConnectTo(port);
  }
  const std::vector<std::string>& names = ServeMixTenantNames();
  const int64_t c0 = CpuNs();
  const int64_t recv_c0 = ThreadCpuNs();
  int64_t sender_cpu_ns = 0;
  // Start a little ahead so the first due time is not already late.
  const int64_t t0 = WallNs() + 2000000;
  std::vector<double> late(sched.size(), 0);
  std::thread sender([&] {
    const int64_t sender_c0 = ThreadCpuNs();
    for (size_t i = 0; i < sched.size(); ++i) {
      const Arrival& a = sched[i];
      const int64_t due = t0 + a.due_ns;
      int64_t now = WallNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = WallNs();
      }
      late[i] = NsToMs(now - due);
      // The connection with the fewest unanswered requests: the server
      // answers one request per connection at a time, so this keeps a
      // request from queueing behind a slow one while another is idle.
      Conn* c = nullptr;
      size_t best = SIZE_MAX;
      for (const auto& cand : cs) {
        if (cand->fd < 0) continue;
        std::lock_guard<std::mutex> lock(cand->mu);
        if (cand->fifo.size() < best) {
          best = cand->fifo.size();
          c = cand.get();
        }
      }
      if (c == nullptr) continue;
      {
        std::lock_guard<std::mutex> lock(c->mu);
        c->fifo.push_back({due, a.query});
      }
      SendAll(c->fd, "QUERY " + std::to_string(a.query) + " client=" +
                         names[static_cast<size_t>(a.tenant)] + "\n");
    }
    sender_cpu_ns = ThreadCpuNs() - sender_c0;
  });

  const int64_t last_due = t0 + (sched.empty() ? 0 : sched.back().due_ns);
  size_t answered = 0;
  std::vector<pollfd> pfds;
  for (const auto& c : cs) pfds.push_back({c->fd, POLLIN, 0});
  char tmp[65536];
  // Per answered request, in answer order: (due time, latency) for the
  // backlog check below.
  std::vector<std::pair<int64_t, double>> by_due;
  while (answered < sched.size() && WallNs() < last_due + kDrainNs) {
    if (::poll(pfds.data(), pfds.size(), 50) <= 0) continue;
    for (size_t ci = 0; ci < cs.size(); ++ci) {
      if ((pfds[ci].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = *cs[ci];
      ssize_t n = ::recv(c.fd, tmp, sizeof(tmp), 0);
      if (n <= 0) {
        pfds[ci].fd = -1;  // closed: its pending requests stay unanswered
        continue;
      }
      c.inbuf.append(tmp, static_cast<size_t>(n));
      bool ok = false;
      std::string body;
      while (TakeResponse(&c.inbuf, &ok, &body)) {
        const int64_t done = WallNs();
        Pending p;
        {
          std::lock_guard<std::mutex> lock(c.mu);
          if (c.fifo.empty()) break;  // protocol desync; counted below
          p = c.fifo.front();
          c.fifo.pop_front();
        }
        ++answered;
        if (oracle != nullptr) {
          const size_t qi = static_cast<size_t>(p.query - 1);
          ok = ok && qi < oracle->size() && body == (*oracle)[qi];
        }
        if (!ok) {
          ++out.failed;
          continue;
        }
        ++out.ok;
        const double ms = NsToMs(done - p.due_abs_ns);
        out.lat_ms.push_back(ms);
        out.lat_query.push_back(p.query);
        by_due.emplace_back(p.due_abs_ns, ms);
        if (tr != nullptr) {
          Span s;
          s.name = "serve.request";
          s.layer = "serve";
          s.start_ns = p.due_abs_ns;
          s.end_ns = done;
          s.op = tr->NextOp();
          tr->recorder().Add(s);
        }
      }
    }
  }
  const int64_t recv_cpu_ns = ThreadCpuNs() - recv_c0;
  sender.join();
  out.cpu_ms = NsToMs(CpuNs() - c0 - recv_cpu_ns - sender_cpu_ns);
  for (const auto& c : cs) {
    if (c->fd >= 0) ::close(c->fd);
  }
  out.failed += static_cast<int64_t>(sched.size() - answered);
  out.late_ms = late;
  // A growing backlog shows as latency rising from the first quarter of the
  // phase to the last.
  std::sort(by_due.begin(), by_due.end());
  const size_t quarter = by_due.size() / 4;
  if (quarter >= 10) {
    std::vector<double> first, last;
    for (size_t i = 0; i < quarter; ++i) {
      first.push_back(by_due[i].second);
      last.push_back(by_due[by_due.size() - 1 - i].second);
    }
    out.backlog_grew = Median(last) > 2 * Median(first) + 5.0;
  }
  return out;
}

}  // namespace qc::perfbench
