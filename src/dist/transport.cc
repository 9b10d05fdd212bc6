#include "src/dist/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

namespace retrace {
namespace {

i64 NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Join deadline: self-spawned children connect over loopback within
// milliseconds; remote daemons get long enough to notice the listener
// but not long enough to stall a search whose wall budget is ticking.
constexpr i64 kSelfSpawnDeadlineMs = 20'000;
constexpr i64 kRemoteJoinDeadlineMs = 60'000;
// Per-connection cap inside the fleet deadline: one connected-but-mute
// peer (hung daemon, port scanner) must cost its own slot, not eat the
// whole join window of every shard behind it.
constexpr i64 kPerHandshakeMs = 10'000;
// Dial timeout: an unreachable endpoint (SYN blackhole) must cost this,
// not the kernel's multi-minute default, or dead entries in
// shard_endpoints burn the search's wall budget before any shard runs.
constexpr int kConnectTimeoutMs = 10'000;

// Splits "host:port"; empty host (":9000") means loopback.
bool SplitEndpoint(const std::string& endpoint, std::string* host, std::string* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    return false;
  }
  *host = endpoint.substr(0, colon);
  *port = endpoint.substr(colon + 1);
  if (host->empty()) {
    *host = "127.0.0.1";
  }
  return true;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// An ephemeral listen port (":0") cannot be targeted by remote daemons
// — nobody outside this process can learn it in time — so it signals
// loopback self-spawn mode. A fixed port means the operator will point
// real `retrace_shardd <host:port>` joiners at it.
bool PortIsEphemeral(const std::string& endpoint) {
  std::string host;
  std::string port;
  return SplitEndpoint(endpoint, &host, &port) && port == "0";
}

// Reaps `pids` with a bounded grace window, then escalates to SIGKILL.
// A plain blocking waitpid() here would hang the coordinator forever on
// a child that is wedged (hung shard, fault-injection mute) — the exact
// children a teardown path most needs to collect. A child that just sent
// its kResult exits within microseconds, so the WNOHANG passes back off
// from kReapFirstNapUs, doubling up to kReapMaxNapUs, instead of
// charging every job a flat nap.
constexpr i64 kReapGraceMs = 2'000;
constexpr useconds_t kReapFirstNapUs = 100;
constexpr useconds_t kReapMaxNapUs = 10'000;

void ReapWithDeadline(std::vector<int>* pids) {
  const i64 deadline = NowMs() + kReapGraceMs;
  useconds_t nap_us = kReapFirstNapUs;
  bool all_done = false;
  while (!all_done && NowMs() < deadline) {
    all_done = true;
    for (int& pid : *pids) {
      if (pid <= 0) continue;
      int wstatus = 0;
      const pid_t got = ::waitpid(pid, &wstatus, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD)) {
        pid = -1;
      } else {
        all_done = false;
      }
    }
    if (!all_done) {
      ::usleep(nap_us);
      nap_us = std::min(2 * nap_us, kReapMaxNapUs);
    }
  }
  for (int& pid : *pids) {
    if (pid <= 0) continue;
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);  // SIGKILL is not ignorable: bounded.
    pid = -1;
  }
}

// Non-blocking connect bounded by kConnectTimeoutMs; restores blocking
// mode on success (WireChannel::Send relies on it).
bool ConnectWithTimeout(int fd, const struct sockaddr* addr, socklen_t len) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return false;
  }
  if (::connect(fd, addr, len) != 0) {
    if (errno != EINPROGRESS) {
      return false;
    }
    struct pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    if (::poll(&pfd, 1, kConnectTimeoutMs) <= 0) {
      return false;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0) {
      return false;
    }
  }
  return ::fcntl(fd, F_SETFL, flags) == 0;
}

}  // namespace

int TcpListen(const std::string& endpoint, std::string* bound_endpoint) {
  std::string host;
  std::string port;
  if (!SplitEndpoint(endpoint, &host, &port)) {
    return -1;
  }
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 || res == nullptr) {
    return -1;
  }
  int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd >= 0) {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, res->ai_addr, res->ai_addrlen) != 0 || ::listen(fd, 64) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ::freeaddrinfo(res);
  if (fd >= 0 && bound_endpoint != nullptr) {
    struct sockaddr_in addr = {};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) == 0) {
      char ip[INET_ADDRSTRLEN] = {};
      ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
      *bound_endpoint = std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
    } else {
      *bound_endpoint = endpoint;
    }
  }
  return fd;
}

int TcpConnect(const std::string& endpoint) {
  std::string host;
  std::string port;
  if (!SplitEndpoint(endpoint, &host, &port)) {
    return -1;
  }
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 || res == nullptr) {
    return -1;
  }
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      continue;
    }
    if (ConnectWithTimeout(fd, ai->ai_addr, ai->ai_addrlen)) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) {
    SetNoDelay(fd);
  }
  return fd;
}

// ----- LocalForkTransport -----

std::vector<std::unique_ptr<WireChannel>> LocalForkTransport::Start(u32 num_shards) {
  std::vector<std::unique_ptr<WireChannel>> channels(num_shards);
  pids_.assign(num_shards, -1);
  // Children must not inherit buffered output they would double-flush.
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<int> parent_fds;
  for (u32 s = 0; s < num_shards; ++s) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      continue;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: drop every coordinator-side fd, run the shard, and leave
      // without touching the inherited process state (atexit, stdio).
      ::close(fds[0]);
      for (const int parent_fd : parent_fds) {
        ::close(parent_fd);
      }
      const bool ok = shard_main_(s, fds[1]);
      ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    if (pid < 0) {
      ::close(fds[0]);
      continue;
    }
    parent_fds.push_back(fds[0]);
    pids_[s] = pid;
    channels[s] = std::make_unique<WireChannel>(fds[0]);
  }
  return channels;
}

void LocalForkTransport::Kill() {
  for (const int pid : pids_) {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
    }
  }
}

void LocalForkTransport::KillSlot(u32 slot) {
  if (slot < pids_.size() && pids_[slot] > 0) {
    ::kill(pids_[slot], SIGKILL);
  }
}

void LocalForkTransport::Reap() { ReapWithDeadline(&pids_); }

// ----- TcpTransport -----

TcpTransport::TcpTransport(std::string listen_endpoint, std::vector<std::string> endpoints,
                           SelfSpawnMain self_spawn, std::string token)
    : listen_(std::move(listen_endpoint)),
      endpoints_(std::move(endpoints)),
      self_spawn_(std::move(self_spawn)),
      token_(std::move(token)) {}

TcpTransport::~TcpTransport() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
}

std::unique_ptr<WireChannel> TcpTransport::Handshake(int fd, i64 deadline_ms) {
  auto chan = std::make_unique<WireChannel>(fd);
  // The joiner speaks first: exactly one kJoin, then it waits for jobs.
  std::vector<WireFrame> frames;
  while (frames.empty()) {
    const i64 remaining = deadline_ms - NowMs();
    if (remaining <= 0) {
      return nullptr;
    }
    const WireChannel::RecvStatus status =
        chan->Poll(static_cast<int>(std::min<i64>(remaining, 200)), &frames);
    if (status != WireChannel::RecvStatus::kOk) {
      return nullptr;
    }
  }
  WireJoin join;
  if (frames.size() != 1 || frames[0].type != WireMsg::kJoin ||
      !DecodePayload(frames[0].payload, DecodeJoin, &join)) {
    return nullptr;
  }
  // Shared-secret check happens here, before any job bytes ship: a
  // joiner with the wrong token learns nothing about the program under
  // replay, it just sees its socket close.
  if (!token_.empty() && join.token != token_) {
    std::fprintf(stderr, "[dist] tcp: refused joiner '%s': bad auth token\n",
                 join.ident.c_str());
    return nullptr;
  }
  return chan;
}

std::vector<std::unique_ptr<WireChannel>> TcpTransport::Start(u32 num_shards) {
  std::vector<std::unique_ptr<WireChannel>> channels(num_shards);
  listen_fd_ = TcpListen(listen_, &bound_);
  const bool self_spawning =
      endpoints_.empty() && self_spawn_ != nullptr && PortIsEphemeral(listen_);
  if (listen_fd_ < 0 && endpoints_.empty()) {
    return channels;  // Nothing can ever connect: all slots dead.
  }
  const i64 deadline =
      NowMs() + (self_spawning ? kSelfSpawnDeadlineMs : kRemoteJoinDeadlineMs);

  u32 filled = 0;
  // Self-spawned loopback children: forked before any channel exists, so
  // the only coordinator fd they must drop is the listener.
  if (self_spawning && listen_fd_ >= 0) {
    std::fflush(stdout);
    std::fflush(stderr);
    for (u32 s = 0; s < num_shards; ++s) {
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::close(listen_fd_);
        const bool ok = self_spawn_(bound_);
        ::_exit(ok ? 0 : 1);
      }
      if (pid > 0) {
        pids_.push_back(pid);
      }
    }
  }
  // Dial out to waiting daemons (retrace_shardd --listen). The daemon
  // still speaks first (kJoin) once accepted — the handshake does not
  // care who dialed.
  for (const std::string& endpoint : endpoints_) {
    if (filled >= num_shards || NowMs() >= deadline) {
      break;  // Dead endpoints must not eat the join window serially.
    }
    const int fd = TcpConnect(endpoint);
    if (fd < 0) {
      std::fprintf(stderr, "[dist] tcp: failed to dial shard endpoint %s\n", endpoint.c_str());
      continue;
    }
    std::unique_ptr<WireChannel> chan =
        Handshake(fd, std::min(deadline, NowMs() + kPerHandshakeMs));
    if (chan != nullptr) {
      channels[filled++] = std::move(chan);
    }
  }
  // Inbound joiners fill the remaining slots until the deadline. An
  // ephemeral port only admits joiners this process spawned itself —
  // no remote daemon can learn it — so without self-spawn there is
  // nobody to wait for and the empty slots fail fast instead of
  // burning the join window.
  while (filled < num_shards && listen_fd_ >= 0 &&
         (self_spawning || !PortIsEphemeral(listen_))) {
    const i64 remaining = deadline - NowMs();
    if (remaining <= 0) {
      break;
    }
    struct pollfd pfd = {};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::min<i64>(remaining, 200)));
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    SetNoDelay(fd);
    std::unique_ptr<WireChannel> chan =
        Handshake(fd, std::min(deadline, NowMs() + kPerHandshakeMs));
    if (chan != nullptr) {
      channels[filled++] = std::move(chan);
    }
  }
  if (filled < num_shards) {
    std::fprintf(stderr, "[dist] tcp: only %u of %u shard(s) joined at %s\n", filled,
                 num_shards, bound_.c_str());
  }
  // The fleet is complete (or as complete as it gets): stop accepting.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  return channels;
}

void TcpTransport::Kill() {
  for (const int pid : pids_) {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
    }
  }
  // Remote shards cannot be signalled; they observe the closed socket
  // when the coordinator drops their channel and wind down on their own.
}

void TcpTransport::Reap() { ReapWithDeadline(&pids_); }

}  // namespace retrace
