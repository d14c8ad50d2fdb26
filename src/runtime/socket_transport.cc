#include "runtime/socket_transport.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "runtime/frame.h"
#include "sim/cluster.h"

namespace paxml {

namespace {

void SetRecvTimeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Reads records until one of `type` arrives (handshake only; data records
/// are not expected before the ack).
Result<WireRecord> ReadRecordOfType(int fd, RecordBuffer* buf,
                                    RecordType type) {
  char chunk[4096];
  while (true) {
    PAXML_ASSIGN_OR_RETURN(auto maybe, buf->Next());
    if (maybe.has_value()) {
      if (maybe->type == RecordType::kError) {
        ByteReader reader(maybe->payload);
        PAXML_ASSIGN_OR_RETURN(ErrorRecord err, ErrorRecord::Decode(&reader));
        return Status::NetworkError("peer rejected handshake: " + err.message);
      }
      if (maybe->type != type) {
        return Status::NetworkError("unexpected record during handshake");
      }
      return std::move(*maybe);
    }
    PAXML_ASSIGN_OR_RETURN(size_t n, ReadSome(fd, chunk, sizeof(chunk)));
    if (n == 0) return Status::NetworkError("peer closed during handshake");
    buf->Append({chunk, n});
  }
}

}  // namespace

SocketTransport::SocketTransport(TransportOptions options)
    : Transport(std::move(options)) {
  // The frame is the wire unit: an unbatched socket plane would have no
  // records to write.
  PAXML_CHECK(this->options().batching);
  PAXML_CHECK(!this->options().remote_endpoints.empty());

  for (const auto& [site, endpoint] : this->options().remote_endpoints) {
    auto conn = std::make_unique<Connection>();
    conn->site = site;
    conn->endpoint = endpoint;
    Result<int> fd = DialEndpoint(endpoint);
    Status status = fd.status();
    if (status.ok()) {
      conn->fd = *fd;
      // Bound the handshake so a wedged peer cannot hang construction;
      // steady-state reads block indefinitely (rounds have no deadline).
      SetRecvTimeout(conn->fd, 30);
      RecordBuffer buf;
      HelloRecord hello;
      hello.site = site;
      hello.answer_chunk_ids = this->options().answer_chunk_ids;
      hello.data_chunk_bytes = this->options().data_chunk_bytes;
      hello.max_frame_bytes = this->options().max_frame_bytes;
      hello.site_threads = this->options().site_threads;
      // Offer the codec only when the client would actually use it.
      const bool offer_lz4 = this->options().compress_min_bytes > 0;
      hello.codecs = offer_lz4 ? kCodecLz4 : 0;
      hello.compress_min_bytes = this->options().compress_min_bytes;
      // The peer may fan this connection's runs' rounds out (capped by
      // its operator).
      hello.peer_concurrent_rounds = this->options().peer_concurrent_rounds;
      std::string bytes;
      AppendControlRecord(RecordType::kHello, hello, &bytes);
      status = WriteAll(conn->fd, bytes);
      if (status.ok()) {
        Result<WireRecord> ack =
            ReadRecordOfType(conn->fd, &buf, RecordType::kHelloAck);
        if (ack.ok()) {
          ByteReader reader(ack->payload);
          Result<HelloAckRecord> decoded = HelloAckRecord::Decode(&reader);
          if (!decoded.ok()) {
            status = decoded.status();
          } else if (decoded->site != site) {
            status = Status::NetworkError(
                "peer at " + endpoint + " serves a different site");
          } else {
            // A peer that declined the codec simply runs uncompressed.
            conn->compress = offer_lz4 && (decoded->codecs & kCodecLz4) != 0;
          }
        } else {
          status = ack.status();
        }
      }
      if (status.ok()) {
        SetRecvTimeout(conn->fd, 0);
        conn->alive = true;
      } else {
        CloseFd(conn->fd);
        conn->fd = -1;
      }
    }
    conn->status = status;
    if (conn->alive) {
      conn->receiver =
          std::thread([this, c = conn.get()] { ReceiverLoop(c); });
    }
    by_site_[site] = conn.get();
    connections_.push_back(std::move(conn));
  }
}

SocketTransport::~SocketTransport() {
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    for (auto& conn : connections_) {
      // EOF is the graceful teardown signal; peers drop connection state.
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& conn : connections_) {
    if (conn->receiver.joinable()) conn->receiver.join();
    CloseFd(conn->fd);
    conn->fd = -1;
  }
}

SocketTransport::Connection* SocketTransport::ConnectionFor(SiteId site) {
  auto it = by_site_.find(site);
  return it == by_site_.end() ? nullptr : it->second;
}

Status SocketTransport::EnsureConnected() const {
  std::lock_guard<std::mutex> lock(net_mu_);
  for (const auto& conn : connections_) {
    if (!conn->alive) return conn->status;
  }
  return Status::OK();
}

void SocketTransport::QueueLocked(Connection& conn, std::string bytes) {
  if (!conn.alive) return;  // the round registration surfaces the failure
  conn.outbox.append(bytes);
}

bool SocketTransport::TakeSealedFrameLocked(Frame& frame,
                                            FrameWireInfo* wire) {
  if (!remote(frame.to)) return false;
  Connection* conn = ConnectionFor(frame.to);
  // Compress only when the connection negotiated it; a fallback peer gets
  // (and the run's stats record) plain raw frames.
  const uint64_t threshold = (conn != nullptr && conn->compress)
                                 ? options().compress_min_bytes
                                 : 0;
  std::string bytes;
  *wire = EncodeFrameForWire(frame, threshold, &bytes);
  std::lock_guard<std::mutex> lock(net_mu_);
  if (conn == nullptr || !conn->alive) {
    // The frame is lost with its peer; make sure the run reports it even
    // if no later round visits the dead site.
    failed_runs_.emplace(
        frame.run, Status::NetworkError("site " + std::to_string(frame.to) +
                                        " is unreachable"));
    return true;
  }
  QueueLocked(*conn, std::move(bytes));
  return true;
}

void SocketTransport::FlushConnection(Connection& conn) {
  // io_mu before net_mu_ keeps concurrent flushers from reordering two
  // swapped-out batches on the wire (lock order: io_mu -> net_mu_; the
  // base transport lock, when held, always comes first).
  std::lock_guard<std::mutex> io_lock(conn.io_mu);
  std::string bytes;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    if (!conn.alive || conn.outbox.empty()) return;
    bytes.swap(conn.outbox);
    fd = conn.fd;
  }
  Status status = WriteAll(fd, bytes);
  if (!status.ok()) FailConnection(conn, std::move(status));
}

void SocketTransport::FlushOutboxes() {
  for (auto& conn : connections_) FlushConnection(*conn);
}

void SocketTransport::FailConnection(Connection& conn, Status status) {
  std::lock_guard<std::mutex> lock(net_mu_);
  if (!conn.alive) return;
  conn.alive = false;
  conn.status = std::move(status);
  conn.outbox.clear();
  // Wake the receiver and any blocked writer; the fd itself closes in the
  // destructor, after the receiver thread joined.
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
  Status site_error = Status::NetworkError(
      "connection to site " + std::to_string(conn.site) + " (" +
      conn.endpoint + ") failed: " + conn.status.message());
  for (auto& [run, wait] : waits_) {
    if (wait.awaiting.erase(conn.site) > 0 && wait.status.ok()) {
      wait.status = site_error;
    }
  }
  net_cv_.notify_all();
}

void SocketTransport::FailRun(RunId run, Status status) {
  std::lock_guard<std::mutex> lock(net_mu_);
  failed_runs_.emplace(run, status);
  auto it = waits_.find(run);
  if (it != waits_.end() && it->second.status.ok()) {
    it->second.status = std::move(status);
    net_cv_.notify_all();
  }
}

void SocketTransport::RunOpened(RunId run, const Cluster* cluster,
                                const RunSpec* spec) {
  // Config validation happens per run (the transport sees its cluster here
  // first): a bad deployment map fails the run cleanly, never aborts.
  for (const auto& [site, endpoint] : options().remote_endpoints) {
    if (site < 0 || static_cast<size_t>(site) >= cluster->site_count()) {
      FailRun(run, Status::InvalidArgument(
                       "remote endpoint for site " + std::to_string(site) +
                       " outside the cluster"));
      return;
    }
  }
  if (remote(cluster->query_site())) {
    FailRun(run, Status::InvalidArgument(
                     "the query site must be local to the client process"));
    return;
  }

  OpenRunRecord record;
  record.run = run;
  if (spec != nullptr) record.spec = *spec;
  record.site_count = static_cast<uint32_t>(cluster->site_count());
  record.placement.reserve(cluster->fragment_count());
  for (size_t f = 0; f < cluster->fragment_count(); ++f) {
    record.placement.push_back(cluster->site_of(static_cast<FragmentId>(f)));
  }
  std::string bytes;
  AppendControlRecord(RecordType::kOpenRun, record, &bytes);
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    for (auto& conn : connections_) QueueLocked(*conn, bytes);
  }
  FlushOutboxes();
}

void SocketTransport::RunClosing(RunId run) {
  CloseRunRecord record;
  record.run = run;
  std::string bytes;
  AppendControlRecord(RecordType::kCloseRun, record, &bytes);
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    for (auto& conn : connections_) {
      QueueLocked(*conn, bytes);
      conn->reassembler.CloseRun(run);
    }
    failed_runs_.erase(run);
    waits_.erase(run);  // no round can be in flight at close
  }
  FlushOutboxes();
}

Status SocketTransport::RunRound(RunId run, const std::vector<SiteId>& sites,
                                 const DeliverFn& deliver,
                                 std::vector<double>* durations) {
  durations->assign(sites.size(), 0);
  if (sites.empty()) return Status::OK();

  std::vector<size_t> local_idx;
  std::vector<size_t> remote_idx;
  for (size_t i = 0; i < sites.size(); ++i) {
    (remote(sites[i]) ? remote_idx : local_idx).push_back(i);
  }

  // The round boundary: seals every staged edge of the run — local frames
  // into mailboxes, remote ones into their connections' outboxes — and
  // snapshots the visited sites' local mail.
  std::vector<std::vector<Envelope>> inboxes = SnapshotInboxes(run, sites);

  // Register the barrier before any kRoundStart goes out, so a fast peer's
  // kRoundDone always finds it.
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    PAXML_CHECK(waits_.count(run) == 0);  // one round per run at a time
    RoundWait& wait = waits_[run];
    auto failed = failed_runs_.find(run);
    if (failed != failed_runs_.end()) wait.status = failed->second;
    for (size_t i : remote_idx) {
      Connection* conn = ConnectionFor(sites[i]);
      PAXML_CHECK(conn != nullptr);
      if (!conn->alive) {
        if (wait.status.ok()) {
          wait.status = Status::NetworkError(
              "site " + std::to_string(sites[i]) + " (" + conn->endpoint +
              ") is unreachable: " + conn->status.message());
        }
        continue;
      }
      wait.awaiting.insert(sites[i]);
      RoundStartRecord start;
      start.run = run;
      start.site = sites[i];
      std::string bytes;
      AppendControlRecord(RecordType::kRoundStart, start, &bytes);
      QueueLocked(*conn, std::move(bytes));
    }
  }
  // Everything queued — the run's frames, then the round starts — goes on
  // the wire in order; peers work while we deliver the local sites.
  FlushOutboxes();

  for (size_t i : local_idx) {
    (*durations)[i] = TimedDeliver(deliver, sites[i], std::move(inboxes[i]));
  }

  Status status;
  {
    std::unique_lock<std::mutex> lock(net_mu_);
    RoundWait& wait = waits_[run];
    // An error ends the wait immediately (no hang on a dead peer); late
    // kRoundDones for this round find no entry and are ignored.
    net_cv_.wait(lock, [&] {
      return wait.awaiting.empty() || !wait.status.ok();
    });
    status = wait.status;
    for (size_t i : remote_idx) {
      auto it = wait.seconds.find(sites[i]);
      if (it != wait.seconds.end()) (*durations)[i] = it->second;
    }
    waits_.erase(run);
  }
  return status;
}

void SocketTransport::ReceiverLoop(Connection* conn) {
  RecordBuffer buf;
  char chunk[1 << 16];
  while (true) {
    Result<size_t> n = ReadSome(conn->fd, chunk, sizeof(chunk));
    if (!n.ok() || *n == 0) {
      FailConnection(*conn, n.ok() ? Status::NetworkError("peer closed")
                                   : n.status());
      return;
    }
    buf.Append({chunk, *n});
    while (true) {
      Result<std::optional<WireRecord>> record = buf.Next();
      if (!record.ok()) {
        FailConnection(*conn, record.status());
        return;
      }
      if (!record->has_value()) break;
      Status status = HandleRecord(*conn, std::move(**record));
      if (!status.ok()) {
        FailConnection(*conn, std::move(status));
        return;
      }
    }
  }
}

Status SocketTransport::HandleRecord(Connection& conn, WireRecord record) {
  ByteReader reader(record.payload);
  switch (record.type) {
    case RecordType::kFrame:
    case RecordType::kFrameZ: {
      PAXML_ASSIGN_OR_RETURN(ReceivedFrame received,
                             DecodeFrameRecord(record, conn.compress));
      if (received.frame.from != conn.site) {
        return Status::NetworkError("frame from a site the peer does not serve");
      }
      {
        std::lock_guard<std::mutex> lock(net_mu_);
        PAXML_RETURN_NOT_OK(conn.reassembler.Accept(received.frame));
      }
      // Injection accounts the frame (the codec reproduces the sender's
      // logical deltas exactly; the record's own sizes feed the wire
      // split) and mailboxes it; frames for since-closed runs are dropped
      // inside.
      return InjectFrame(std::move(received.frame), &received.wire);
    }
    case RecordType::kRoundDone: {
      PAXML_ASSIGN_OR_RETURN(RoundDoneRecord done,
                             RoundDoneRecord::Decode(&reader));
      // Merge the peer's memo savings before taking net_mu_ (the base
      // class's lock never nests inside it), and before the barrier
      // releases — the accounting happens-before the round's completion.
      if (done.memo_fragment_hits > 0) {
        AccountMemoSavings(done.run,
                           MemoSavings{done.memo_fragment_hits,
                                       done.memo_saved_bytes,
                                       done.memo_saved_seconds});
      }
      // Likewise the peer's pool saturation (advisory, like memo_*).
      if (done.pool_tasks > 0) {
        AccountPoolStats(done.run, PoolStats{done.pool_tasks,
                                             done.pool_busy_peak,
                                             done.pool_queue_peak});
      }
      std::lock_guard<std::mutex> lock(net_mu_);
      auto it = waits_.find(done.run);
      if (it == waits_.end()) return Status::OK();  // stale: round already over
      RoundWait& wait = it->second;
      if (wait.awaiting.erase(done.site) > 0) {
        wait.seconds[done.site] = done.seconds;
        if (!done.status.ok() && wait.status.ok()) {
          wait.status = done.status;
        }
        net_cv_.notify_all();
      }
      return Status::OK();
    }
    case RecordType::kError: {
      PAXML_ASSIGN_OR_RETURN(ErrorRecord error, ErrorRecord::Decode(&reader));
      if (error.run == kNullRun) {
        return Status::NetworkError("peer error: " + error.message);
      }
      FailRun(error.run, Status::NetworkError("site " +
                                              std::to_string(conn.site) +
                                              ": " + error.message));
      return Status::OK();
    }
    default:
      return Status::NetworkError(std::string("unexpected record: ") +
                                  RecordTypeName(record.type));
  }
}

}  // namespace paxml
