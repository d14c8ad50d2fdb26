// The socket wire protocol under the framed message plane.
//
// A connection between the client (the process driving Coordinators over a
// SocketTransport) and a paxml_site peer carries length-delimited *records*:
// a little-endian u32 length, a type byte, then the typed payload. Data
// records (kFrame) carry exactly a Frame::Encode buffer — the unit PR 4
// built, whose header (run, edge, per-edge sequence) is what reassembly
// needs; control records implement the run lifecycle (kOpenRun/kCloseRun)
// and the round barrier (kRoundStart/kRoundDone), replacing the function
// calls an in-process transport makes (DESIGN.md §9).
//
// Everything here is testable without a socket: RecordBuffer decodes a byte
// stream incrementally (truncated and corrupt input surface as need-more /
// clean parse errors), FrameReassembler validates per-(run, edge) sequence
// numbers (duplicates and reordering are protocol violations), and each
// control record has an Encode/Decode pair over the shared ByteWriter /
// ByteReader primitives. The fd helpers at the bottom are the only code
// that touches the network.

#ifndef PAXML_RUNTIME_WIRE_H_
#define PAXML_RUNTIME_WIRE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "boolexpr/codec.h"
#include "common/result.h"
#include "runtime/frame.h"
#include "runtime/transport.h"

namespace paxml {

/// The protocol version, exchanged in both directions at Hello: the server
/// answers a Hello of any other version with a kError record and drops the
/// connection, and the client rejects a HelloAck of any other version.
/// paxml_site is the only peer implementation, so there is no
/// mixed-version interop — bump on any change to a record's layout.
/// Current layout: Hello carries the site, the client's message-plane
/// knobs (chunk sizes, max frame bytes, site_threads), the codec offer with
/// compress_min_bytes and peer_concurrent_rounds; HelloAck the served site,
/// the server's version and the accepted codecs; OpenRun the RunSpec
/// (family included) and a placement fingerprint; RoundDone the round's
/// duration, status and telemetry block (fragment-memo savings, then pool
/// saturation); kFrameZ an lz4-compressed frame on connections that
/// negotiated the codec.
inline constexpr uint32_t kWireProtocolVersion = 7;

/// Codec bitmask for the Hello/HelloAck negotiation. The only codec today
/// is the in-repo LZ4-style block format (common/lz4.h).
inline constexpr uint8_t kCodecLz4 = 1;

/// Upper bound on one record's length field: a corrupt length must be a
/// parse error, not a gigabyte allocation.
inline constexpr uint64_t kMaxRecordBytes = 1ull << 30;

enum class RecordType : uint8_t {
  kHello = 1,      ///< client -> peer: version + the site the client dialed
  kHelloAck,       ///< peer -> client: the site actually served
  kOpenRun,        ///< client -> peer: run id, RunSpec, placement fingerprint
  kCloseRun,       ///< client -> peer: drop the run's mail and program
  kFrame,          ///< either direction: one Frame::Encode buffer
  kRoundStart,     ///< client -> peer: deliver the site's pending mail now
  kRoundDone,      ///< peer -> client: round executed (duration + status)
  kError,          ///< peer -> client: a run failed remotely
  kFrameZ,         ///< either direction: varint raw size + lz4 block
};

const char* RecordTypeName(RecordType type);

struct WireRecord {
  RecordType type;
  std::string payload;
};

/// Appends one length-delimited record to `out`.
void AppendRecord(RecordType type, std::string_view payload, std::string* out);

/// Incremental decoder over a received byte stream. Append() raw bytes as
/// they arrive; Next() pops complete records in order, returns nullopt when
/// the buffer holds only a record prefix (truncated input is not an error
/// until the stream ends), and a parse error for corrupt framing (unknown
/// type, oversized length).
class RecordBuffer {
 public:
  void Append(std::string_view bytes);

  Result<std::optional<WireRecord>> Next();

  /// Bytes buffered but not yet consumed — non-zero at connection EOF means
  /// the peer died mid-record.
  size_t pending_bytes() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
};

/// Validates the frame stream of one connection: within a (run, edge) the
/// sequence numbers minted by the sender's staging are consecutive from the
/// first one seen, so a duplicated, dropped or reordered record surfaces as
/// a clean protocol error instead of corrupt accounting.
class FrameReassembler {
 public:
  Status Accept(const Frame& frame);

  /// Forgets a closed run's edges (sequence numbering is per run lifetime).
  void CloseRun(RunId run);

 private:
  std::map<std::tuple<RunId, SiteId, SiteId>, uint64_t> next_;
};

// ---- Control record payloads ------------------------------------------------

struct HelloRecord {
  uint32_t version = kWireProtocolVersion;
  SiteId site = kNullSite;  ///< the site the client expects this peer to be

  /// The client transport's message-plane knobs. The peer mirrors them on
  /// its own staging plane so both sides seal byte-identical frames —
  /// otherwise e.g. an adaptive flush on the client only would make socket
  /// message counts diverge from the in-process run.
  uint64_t answer_chunk_ids = 0;
  uint64_t data_chunk_bytes = 0;
  uint64_t max_frame_bytes = 0;

  /// TransportOptions::site_threads, mirrored so the peer parallelizes its
  /// site's per-fragment delivery the same way the client's local sites do
  /// (paxml_site may cap it; determinism does not depend on the value).
  uint64_t site_threads = 1;

  /// Codecs the client can decode (kCodec* bitmask) and its
  /// compress_min_bytes threshold, mirrored by the peer so both directions
  /// gate identically (the wire-accounting equality depends on it).
  uint8_t codecs = 0;
  uint64_t compress_min_bytes = 0;

  /// TransportOptions::peer_concurrent_rounds: the client's ask for
  /// cross-run round fan-out on this connection (the server caps it;
  /// paxml_site --rounds).
  uint64_t peer_concurrent_rounds = 1;

  void Encode(ByteWriter* out) const;
  /// A Hello of any version but kWireProtocolVersion is a NetworkError
  /// naming both versions; the rest of its layout is not read.
  static Result<HelloRecord> Decode(ByteReader* in);
};

struct HelloAckRecord {
  SiteId site = kNullSite;

  /// The server's protocol version and the codec subset it accepted.
  uint32_t version = kWireProtocolVersion;
  uint8_t codecs = 0;

  void Encode(ByteWriter* out) const;
  /// Likewise rejects an ack of any other version with a NetworkError.
  static Result<HelloAckRecord> Decode(ByteReader* in);
};

/// Announces one run to a peer. Carries the RunSpec (empty algorithm = no
/// remote delivery possible, frames only) plus a placement fingerprint so a
/// peer serving a *different* cluster fails loudly at open, not with
/// silently divergent answers.
struct OpenRunRecord {
  RunId run = kNullRun;
  RunSpec spec;
  uint32_t site_count = 0;
  std::vector<SiteId> placement;  ///< fragment -> site, in fragment order

  void Encode(ByteWriter* out) const;
  static Result<OpenRunRecord> Decode(ByteReader* in);
};

struct CloseRunRecord {
  RunId run = kNullRun;

  void Encode(ByteWriter* out) const;
  static Result<CloseRunRecord> Decode(ByteReader* in);
};

struct RoundStartRecord {
  RunId run = kNullRun;
  SiteId site = kNullSite;

  void Encode(ByteWriter* out) const;
  static Result<RoundStartRecord> Decode(ByteReader* in);
};

/// The peer's half of the round barrier: its reply frames were written
/// *before* this record on the same ordered connection, so receipt means
/// the round's traffic has fully arrived.
struct RoundDoneRecord {
  RunId run = kNullRun;
  SiteId site = kNullSite;
  double seconds = 0;  ///< wall time of the site's handler work
  Status status;       ///< the handlers' dispatch status

  /// The peer's advisory telemetry for this round (memo savings, pool
  /// saturation), encoded as one block after the status in
  /// SiteTelemetry's field order; the client merges it into the run's
  /// RunTelemetry (Transport::AccountTelemetry). Never ledger.
  SiteTelemetry telemetry;

  void Encode(ByteWriter* out) const;
  static Result<RoundDoneRecord> Decode(ByteReader* in);
};

struct ErrorRecord {
  RunId run = kNullRun;  ///< kNullRun: the whole connection is poisoned
  std::string message;

  void Encode(ByteWriter* out) const;
  static Result<ErrorRecord> Decode(ByteReader* in);
};

/// Encodes a payload struct into one complete record appended to `out`.
template <typename R>
void AppendControlRecord(RecordType type, const R& record, std::string* out) {
  ByteWriter w;
  record.Encode(&w);
  AppendRecord(type, w.bytes(), out);
}

/// Decodes a control record's payload as an `R`. Every field is required
/// and nothing may follow the last one: trailing bytes are a ParseError,
/// so a layout change under the same protocol version fails loudly.
template <typename R>
Result<R> DecodeControlRecord(const WireRecord& record) {
  ByteReader reader(record.payload);
  PAXML_ASSIGN_OR_RETURN(R decoded, R::Decode(&reader));
  if (!reader.AtEnd()) {
    return Status::ParseError(std::string(RecordTypeName(record.type)) +
                              " record has " +
                              std::to_string(reader.remaining()) +
                              " trailing bytes");
  }
  return decoded;
}

/// One complete kFrame record (never compressed).
void AppendFrameRecord(const Frame& frame, std::string* out);

/// THE frame-record encoder, shared by the client transport, the peer's
/// reply plane and the in-process accounting model — one code path is what
/// keeps sync == pooled == socket wire accounting exact. Encodes `frame`
/// and, when `compress_min_bytes` > 0 and the plain encoding is at least
/// that large, compresses it (common/lz4.h); a compressed payload that
/// fails to shrink below the raw one falls back to raw (both sides apply
/// the same deterministic rule). When `out` is non-null the complete
/// record (kFrame or kFrameZ) is appended; null just models the sizes —
/// the no-materialization fast path for in-process transports with
/// compression off. The returned FrameWireInfo prices the record payload
/// (the unit wire_bytes has always counted; the 5-byte record header is
/// excluded, as before).
FrameWireInfo EncodeFrameForWire(const Frame& frame,
                                 uint64_t compress_min_bytes,
                                 std::string* out);

/// A decoded kFrame/kFrameZ record plus how it arrived.
struct ReceivedFrame {
  Frame frame;
  FrameWireInfo wire;
};

/// Decodes a kFrame or kFrameZ record. A kFrameZ on a connection that
/// never negotiated compression (`allow_compressed` false) is a clean
/// NetworkError — never silent corruption; truncated or oversized
/// compressed payloads, declared-size mismatches and trailing bytes are
/// clean parse errors.
Result<ReceivedFrame> DecodeFrameRecord(const WireRecord& record,
                                        bool allow_compressed);

// ---- Sockets ----------------------------------------------------------------
//
// Minimal blocking TCP plumbing (IPv4/IPv6 via getaddrinfo). All calls
// return Status/Result instead of aborting: a refused dial or a dead peer
// is an operational condition, not a bug.

/// Binds and listens on `host:port` (port 0 = ephemeral); returns the fd.
Result<int> ListenOn(const std::string& host, int port);

/// The locally bound port of a listening fd (resolves port 0).
Result<int> BoundPort(int fd);

/// Accepts one connection (blocking).
Result<int> AcceptOn(int fd);

/// Connects to "host:port" (blocking).
Result<int> DialEndpoint(const std::string& endpoint);

/// Writes all of `bytes` (send with SIGPIPE suppressed).
Status WriteAll(int fd, std::string_view bytes);

/// Reads up to `n` bytes; 0 means orderly EOF.
Result<size_t> ReadSome(int fd, char* buf, size_t n);

void CloseFd(int fd);

}  // namespace paxml

#endif  // PAXML_RUNTIME_WIRE_H_
