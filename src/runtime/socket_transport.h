// SocketTransport: the framed message plane over real TCP connections.
//
// The client side of a multi-process deployment (DESIGN.md §9). Sites named
// in TransportOptions::remote_endpoints are served by paxml_site peer
// processes (runtime/socket_server.h); every other site — the query site
// S_Q must be one of them — is evaluated in-process exactly as under
// SyncTransport. The wire unit is the PR-4 Frame: at each round boundary
// the staged edges seal as usual, but a frame whose destination is remote
// is encoded as a length-delimited kFrame record and queued for its
// connection instead of entering a local mailbox; frames arriving from
// peers are sequence-checked (FrameReassembler) and injected back into the
// run's mailboxes with AccountFrame — the codec's tested guarantee that a
// re-decoded frame reproduces RunStats exactly is what makes a socket run's
// accounting identical to SyncTransport's (tests/socket_transport_test.cc).
//
// The round barrier is a control-record exchange: RunRound writes the
// run's pending frames, sends kRoundStart to each remote site it visits,
// delivers local sites inline, then blocks until every peer's kRoundDone
// (whose frames, on the same ordered connection, have necessarily arrived
// first). Run lifecycle rides the same records: OpenRun announces the run
// and its RunSpec (plus a placement fingerprint, so a peer serving a
// different cluster fails loudly) to every peer, CloseRun tears it down —
// peers drop the run's mail and program without disturbing other runs
// (invariant 5).
//
// Failure semantics: a dead or protocol-violating connection fails *runs
// that touch its site* — pending rounds wake with a clean NetworkError, no
// hang — while runs confined to healthy sites are undisturbed. Dial
// failures behave the same way (recorded, surfaced at the first round).
// Reconnect/retry and TLS are follow-ons (ROADMAP).

#ifndef PAXML_RUNTIME_SOCKET_TRANSPORT_H_
#define PAXML_RUNTIME_SOCKET_TRANSPORT_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/transport.h"
#include "runtime/wire.h"

namespace paxml {

class SocketTransport : public Transport {
 public:
  /// Dials every endpoint in `options.remote_endpoints` (which must be
  /// non-empty) and performs the Hello handshake. Dial failures do not
  /// throw or abort: they surface as clean errors from the first RunRound
  /// that needs the peer. Batching must be on — the frame is the wire unit.
  explicit SocketTransport(TransportOptions options);

  /// Closes every connection (peers treat EOF as teardown) and joins the
  /// receiver threads. All runs must be closed first, as for any backend.
  ~SocketTransport() override;

  Status RunRound(RunId run, const std::vector<SiteId>& sites,
                  const DeliverFn& deliver,
                  std::vector<double>* durations) override;
  const char* name() const override { return "socket"; }

  /// True if `site` is served by a peer process.
  bool remote(SiteId site) const {
    return options().remote_endpoints.count(site) != 0;
  }

  /// The first connection error, or OK when every peer is connected — an
  /// eager health probe for bootstrap code that wants to fail fast.
  Status EnsureConnected() const;

 protected:
  bool TakeSealedFrameLocked(Frame& frame, FrameWireInfo* wire) override;
  void RunOpened(RunId run, const Cluster* cluster,
                 const RunSpec* spec) override;
  void RunClosing(RunId run) override;

 private:
  struct Connection {
    SiteId site = kNullSite;
    std::string endpoint;
    int fd = -1;                ///< -1 once failed/closed (net_mu_)
    bool alive = false;         ///< net_mu_
    Status status;              ///< why the connection died (net_mu_)
    std::string outbox;         ///< encoded records awaiting a flush (net_mu_)
    FrameReassembler reassembler;  ///< incoming sequence check (net_mu_)
    /// Both sides negotiated the lz4 codec at Hello.
    /// Written once during the constructor handshake, before the receiver
    /// thread exists; immutable afterwards, so reads need no lock.
    bool compress = false;
    std::mutex io_mu;           ///< serializes fd writes
    std::thread receiver;
  };

  /// One in-flight round barrier of a run. At most one per run at a time
  /// (the Coordinator drives rounds sequentially).
  struct RoundWait {
    std::set<SiteId> awaiting;
    std::map<SiteId, double> seconds;
    Status status;
  };

  Connection* ConnectionFor(SiteId site);

  /// Appends `bytes` to the connection's outbox (net_mu_ held by caller).
  void QueueLocked(Connection& conn, std::string bytes);

  /// Writes out every connection's queued records.
  void FlushOutboxes();

  /// Swap-and-write one connection's outbox; on failure fails the
  /// connection. Safe from any thread.
  void FlushConnection(Connection& conn);

  /// Marks the connection dead, closes its fd and wakes every round that
  /// was waiting on its site. Idempotent, safe from any thread.
  void FailConnection(Connection& conn, Status status);

  /// Marks `run` permanently failed (bad config, remote error): its next
  /// round surfaces `status` instead of hanging.
  void FailRun(RunId run, Status status);

  void ReceiverLoop(Connection* conn);
  Status HandleRecord(Connection& conn, WireRecord record);

  /// Guards connection liveness, outboxes, reassemblers, waits_ and
  /// failed_runs_. Always the *last* lock acquired: both the base
  /// transport lock (in TakeSealedFrameLocked) and a connection's io_mu
  /// (in FlushConnection) may be held when net_mu_ is taken, so code
  /// holding net_mu_ must never acquire either of them.
  mutable std::mutex net_mu_;
  std::condition_variable net_cv_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<SiteId, Connection*> by_site_;
  std::map<RunId, RoundWait> waits_;
  std::map<RunId, Status> failed_runs_;
};

}  // namespace paxml

#endif  // PAXML_RUNTIME_SOCKET_TRANSPORT_H_
