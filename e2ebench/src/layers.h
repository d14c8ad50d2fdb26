// Per-layer measurements taken outside the closed loop, one call at a
// time, on the workload's own data and answers: XPath compilation, the
// algorithms on a SyncTransport (their cost with no runtime around them),
// and the wire codecs (Frame::Encode/Decode, Lz4Compress/Decompress) on
// frames built from the oracle answer sets.

#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <map>
#include <string>

#include "data.h"
#include "sim/cluster.h"
#include "trace.h"

namespace e2ebench {

/// Mean CompileXPath time per query of the first client's stream, in
/// microseconds (XML clusters).
double MeasureCompileUs(const paxml::Cluster& cluster, const QuerySet& queries,
                        Tracer* tracer);

/// Median wall time of one evaluation on a SyncTransport, per query kind
/// ("light", "heavy", "reach"), in milliseconds.
std::map<std::string, double> MeasureSyncEvalMs(const paxml::Cluster& cluster,
                                                const QuerySet& queries,
                                                Family family, Tracer* tracer);

struct CodecTimes {
  double frame_encode_us = 0;           ///< per answer frame
  double frame_decode_us = 0;           ///< per answer frame
  double lz4_compress_us_per_kb = 0;    ///< per KiB of plain frame bytes
  double lz4_decompress_us_per_kb = 0;  ///< per KiB of plain frame bytes
};

/// Codec timings over one answer frame per distinct query (XML).
CodecTimes MeasureCodecs(const QuerySet& queries, Tracer* tracer);

}  // namespace e2ebench

#endif  // E2EBENCH_LAYERS_H_
