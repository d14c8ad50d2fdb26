#include "peers.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>

namespace e2ebench {

namespace {

/// Live peer pids, readable from a signal handler.
constexpr size_t kMaxPeers = 64;
std::atomic<pid_t> g_registry[kMaxPeers];

void Register(pid_t pid) {
  for (auto& slot : g_registry) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_registry) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

constexpr auto kListenTimeout = std::chrono::seconds(30);

/// Reads the peer's first stdout line (its LISTENING announcement) before
/// `deadline`; returns the port or 0.
int ReadListeningPort(int fd, std::chrono::steady_clock::time_point deadline) {
  std::string line;
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return 0;
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return 0;
    char buf[128];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return 0;  // the peer exited before listening
    line.append(buf, static_cast<size_t>(n));
  }
  int port = 0;
  if (std::sscanf(line.c_str(), "PAXML_SITE LISTENING %d", &port) != 1) {
    return 0;
  }
  return port;
}

}  // namespace

void KillRegisteredPeers() {
  for (auto& slot : g_registry) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

PeerSet::~PeerSet() { Stop(); }

paxml::Status PeerSet::Spawn(const std::string& binary,
                             const std::string& data_dir, size_t site_count,
                             const std::string& placement,
                             const std::vector<paxml::SiteId>& sites,
                             const std::vector<std::string>& extra_args) {
  Stop();
  const pid_t parent = ::getpid();
  for (paxml::SiteId site : sites) {
    std::vector<std::string> args = {binary,      data_dir,
                                     "--site",    std::to_string(site),
                                     "--sites",   std::to_string(site_count),
                                     "--placement", placement,
                                     "--port",    "0"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) {
      Stop();
      return paxml::Status::Internal("pipe failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(out[0]);
      ::close(out[1]);
      Stop();
      return paxml::Status::Internal("fork failed");
    }
    if (pid == 0) {
      // The peer must not outlive the benchmark, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    Register(pid);
    peers_.push_back({site, pid, out[0]});
  }
  return paxml::Status::OK();
}

paxml::Status PeerSet::AwaitListening() {
  const auto deadline = std::chrono::steady_clock::now() + kListenTimeout;
  for (Peer& peer : peers_) {
    const int port = ReadListeningPort(peer.out_fd, deadline);
    ::close(peer.out_fd);
    peer.out_fd = -1;
    if (port <= 0) {
      const paxml::SiteId site = peer.site;
      Stop();
      return paxml::Status::Internal("paxml_site for site " +
                                     std::to_string(site) +
                                     " did not start listening");
    }
    endpoints_[peer.site] = "127.0.0.1:" + std::to_string(port);
  }
  return paxml::Status::OK();
}

std::vector<pid_t> PeerSet::pids() const {
  std::vector<pid_t> out;
  for (const Peer& peer : peers_) out.push_back(peer.pid);
  return out;
}

void PeerSet::Stop() {
  for (Peer& peer : peers_) {
    if (peer.out_fd >= 0) ::close(peer.out_fd);
    ::kill(peer.pid, SIGKILL);
    int status = 0;
    while (::waitpid(peer.pid, &status, 0) < 0 && errno == EINTR) {
    }
    Unregister(peer.pid);
  }
  peers_.clear();
  endpoints_.clear();
}

}  // namespace e2ebench
