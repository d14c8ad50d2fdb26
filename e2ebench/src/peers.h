// paxml_site peer processes for the socket workload.
//
// A PeerSet owns the processes it spawns: its destructor kills and reaps
// them, every peer is started with a parent-death signal (a client that
// crashes takes its peers with it), and KillRegisteredPeers() lets a
// signal handler stop whatever is still running. No exit path of the
// benchmark leaves load behind for the next run.

#ifndef E2EBENCH_PEERS_H_
#define E2EBENCH_PEERS_H_

#include <sys/types.h>

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/stats.h"

namespace e2ebench {

class PeerSet {
 public:
  PeerSet() = default;
  ~PeerSet();

  PeerSet(const PeerSet&) = delete;
  PeerSet& operator=(const PeerSet&) = delete;

  /// Spawns `binary DATADIR --site S --sites K --placement P --port 0
  /// <extra...>` for every site in `sites`, without waiting for them.
  paxml::Status Spawn(const std::string& binary, const std::string& data_dir,
                      size_t site_count, const std::string& placement,
                      const std::vector<paxml::SiteId>& sites,
                      const std::vector<std::string>& extra_args);

  /// Waits until every spawned peer has printed its "PAXML_SITE LISTENING
  /// <port>" line; on a timeout or an early exit it kills them all.
  paxml::Status AwaitListening();

  /// site -> "127.0.0.1:<port>", for EngineConfig::remote_endpoints.
  const std::map<paxml::SiteId, std::string>& endpoints() const {
    return endpoints_;
  }

  std::vector<pid_t> pids() const;

  /// Kills (SIGKILL) and reaps every peer. Idempotent.
  void Stop();

 private:
  struct Peer {
    paxml::SiteId site = paxml::kNullSite;
    pid_t pid = -1;
    int out_fd = -1;  ///< read end of the peer's stdout until LISTENING
  };

  std::vector<Peer> peers_;
  std::map<paxml::SiteId, std::string> endpoints_;
};

/// Async-signal-safe: SIGKILLs every peer any live PeerSet has started.
void KillRegisteredPeers();

}  // namespace e2ebench

#endif  // E2EBENCH_PEERS_H_
