// SiteServer: the peer side of the socket message plane.
//
// One process per machine runs a SiteServer for its SiteId: it listens for
// a SocketTransport client, reconstructs each announced run's site-side
// program from the wired RunSpec (via a factory the core layer provides —
// core/site_program.h — so this runtime layer stays algorithm-agnostic),
// mailboxes the client's frames on a local staging plane, and on each
// kRoundStart drains its site's mail through a SiteDriver — exactly the
// dispatch path the in-process Coordinator uses. The replies its handlers
// stage seal into frames at the end of the round (the peer's round
// boundary), go back on the connection, and only then does kRoundDone
// complete the client's barrier — ordering that makes the barrier correct
// without any further synchronization (DESIGN.md §9).
//
// Runs are independent: kCloseRun (or a client disconnect) drops one run's
// mail, program and sequence state without touching the others. Accounting
// here is advisory only — the client's AccountFrame over the received
// frames is authoritative, and reproduces the in-process RunStats exactly.
//
// Cross-run fan-out (DESIGN.md §14): when a client's Hello asks for
// peer_concurrent_rounds > 1, independent runs' rounds
// on one connection execute concurrently on a per-connection round pool —
// each round's reply frames and its kRoundDone go out as one locked write,
// so the per-run barrier ordering is untouched. Rounds of ONE run are
// never overlapped (the client's barrier already serializes them), so each
// run's RunStats are exactly its solo RunStats.

#ifndef PAXML_RUNTIME_SOCKET_SERVER_H_
#define PAXML_RUNTIME_SOCKET_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "runtime/site_runtime.h"
#include "runtime/transport.h"

namespace paxml {

class Cluster;
class FragmentMemo;

/// One evaluation's site-side program: the MessageHandlers plus everything
/// they borrow (compiled query, options, prune state). Built per run from
/// the client's RunSpec; destroyed at kCloseRun.
class SiteProgram {
 public:
  virtual ~SiteProgram() = default;
  virtual MessageHandlers* handlers() = 0;
};

/// Resolves a RunSpec to a program over the server's cluster. The core
/// layer provides the real one (MakeSiteProgramFactory); tests may inject
/// stubs.
using SiteProgramFactory =
    std::function<Result<std::unique_ptr<SiteProgram>>(const RunSpec&)>;

class SiteServer {
 public:
  /// Serves `site` of `cluster`. The cluster must be bit-identical to the
  /// client's (same document, fragmentation and placement) — kOpenRun
  /// carries a placement fingerprint and mismatches fail the run loudly.
  /// `max_site_threads` caps the intra-site parallelism a client's Hello
  /// may request (0 = honor the client unconditionally): the operator of a
  /// paxml_site machine knows its core budget better than the client does.
  /// A non-null `memo` (paxml_site --memo) turns on fragment-stage
  /// memoization for every run this server delivers: the memo is
  /// process-wide, so repeated queries reuse entries across connections and
  /// runs, and each round's savings are reported back in the RoundDone
  /// record (serving/fragment_memo.h). `allow_compress` (paxml_site
  /// --compress) lets the server accept a client's codec offer at Hello;
  /// off, every offer is declined and the connection runs raw frames.
  /// `max_concurrent_rounds` caps the cross-run round fan-out a client's
  /// Hello may request (paxml_site --rounds; 0 = honor the client, bounded
  /// at 16): like the thread cap, the operator knows the machine's budget.
  SiteServer(const Cluster* cluster, SiteId site, SiteProgramFactory factory,
             size_t max_site_threads = 0,
             std::shared_ptr<FragmentMemo> memo = nullptr,
             bool allow_compress = false, size_t max_concurrent_rounds = 0);
  ~SiteServer();

  SiteServer(const SiteServer&) = delete;
  SiteServer& operator=(const SiteServer&) = delete;

  /// Binds and listens on host:port (port 0 = ephemeral); returns the
  /// bound port.
  Result<int> Listen(const std::string& host, int port);

  /// Accepts and serves clients until Shutdown() or a fatal accept error,
  /// one connection at a time (a client disconnect tears down its runs and
  /// the server accepts the next client).
  Status Serve();

  /// Accepts and serves exactly one client connection.
  Status ServeOne();

  /// Unblocks Serve() from another thread.
  void Shutdown();

  SiteId site() const { return site_; }

 private:
  Status ServeConnection(int fd);

  const Cluster* cluster_;
  SiteId site_;
  SiteProgramFactory factory_;
  size_t max_site_threads_ = 0;
  std::shared_ptr<FragmentMemo> memo_;
  bool allow_compress_ = false;
  size_t max_concurrent_rounds_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> shutdown_{false};
};

}  // namespace paxml

#endif  // PAXML_RUNTIME_SOCKET_SERVER_H_
