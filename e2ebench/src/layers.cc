#include "layers.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/lz4.h"
#include "core/engine.h"
#include "core/messages.h"
#include "core/reach.h"
#include "metrics.h"
#include "runtime/frame.h"
#include "xpath/query_plan.h"

namespace e2ebench {

namespace {

/// Batches per codec measurement; the reported time is the median batch.
constexpr int kBatches = 15;

/// Median over kBatches of the seconds one call of `fn` takes, each batch
/// running `fn` `calls` times under one span.
template <typename Fn>
double MedianCallSeconds(Tracer* tracer, const char* span, int calls, Fn fn) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    Span batch(tracer, span);
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(batch.End() / calls);
  }
  return Median(per_call);
}

/// One frame holding a query's answers as AnswerUp envelopes, one per
/// fragment — what the answer-shipping round puts on the wire.
paxml::Frame AnswerFrame(const std::vector<paxml::GlobalNodeId>& answers) {
  paxml::Frame frame;
  frame.run = 1;
  frame.from = 1;
  frame.to = 0;
  size_t i = 0;
  while (i < answers.size()) {
    paxml::AnswerUpMessage message;
    message.fragment = answers[i].fragment;
    for (; i < answers.size() && answers[i].fragment == message.fragment; ++i) {
      message.answers.push_back(answers[i].node);
    }
    paxml::ByteWriter w;
    message.Encode(&w);
    paxml::Envelope env;
    env.run = frame.run;
    env.from = frame.from;
    env.to = frame.to;
    env.category = paxml::PayloadCategory::kAnswer;
    env.parts.push_back({paxml::MessageKind::kAnswerUp, message.fragment,
                         std::move(w).Take()});
    frame.envelopes.push_back(std::move(env));
  }
  return frame;
}

}  // namespace

double MeasureCompileUs(const paxml::Cluster& cluster, const QuerySet& queries,
                        Tracer* tracer) {
  const std::vector<uint32_t>& stream = queries.streams.front();
  const size_t n = std::min<size_t>(stream.size(), 2000);
  std::vector<double> seconds;
  for (size_t i = 0; i < n; ++i) {
    Span compile(tracer, "xpath.compile");
    auto compiled =
        paxml::CompileXPath(queries.texts[stream[i]], cluster.doc().symbols());
    PAXML_CHECK(compiled.ok());
    seconds.push_back(compile.End());
  }
  double total = 0;
  for (double s : seconds) total += s;
  return total / static_cast<double>(n) * 1e6;
}

std::map<std::string, double> MeasureSyncEvalMs(const paxml::Cluster& cluster,
                                                const QuerySet& queries,
                                                Family family, Tracer* tracer) {
  std::map<std::string, std::vector<double>> by_kind;
  if (family == Family::kXml) {
    paxml::EngineOptions options;
    options.transport = paxml::TransportKind::kSync;
    for (int rep = 0; rep < 9; ++rep) {
      for (size_t q = 0; q < queries.texts.size(); ++q) {
        Span eval(tracer, "core.sync_eval");
        auto r = paxml::EvaluateDistributed(cluster, queries.texts[q], options);
        PAXML_CHECK(r.ok());
        by_kind[queries.kinds[q]].push_back(eval.End());
      }
    }
  } else {
    auto sync = paxml::MakeTransportFor(cluster, paxml::TransportKind::kSync);
    for (size_t q = 0; q < std::min<size_t>(queries.texts.size(), 200); ++q) {
      auto query = paxml::ParseReachQuery(queries.texts[q]);
      PAXML_CHECK(query.ok());
      Span eval(tracer, "core.sync_eval");
      auto r = paxml::EvaluateReachability(cluster, *query, sync.get());
      PAXML_CHECK(r.ok());
      by_kind[queries.kinds[q]].push_back(eval.End());
    }
  }
  std::map<std::string, double> out;
  for (auto& [kind, seconds] : by_kind) out[kind] = Median(seconds) * 1e3;
  return out;
}

CodecTimes MeasureCodecs(const QuerySet& queries, Tracer* tracer) {
  std::vector<paxml::Frame> frames;
  std::vector<std::string> encoded;
  std::vector<std::string> compressed;
  size_t plain_bytes = 0;
  for (const auto& answers : queries.expected) {
    frames.push_back(AnswerFrame(answers));
    paxml::ByteWriter w;
    frames.back().Encode(&w);
    encoded.push_back(std::move(w).Take());
    compressed.push_back(paxml::Lz4Compress(encoded.back()));
    plain_bytes += encoded.back().size();
  }
  const double kb = static_cast<double>(plain_bytes) / 1024.0;
  const double count = static_cast<double>(frames.size());

  CodecTimes t;
  t.frame_encode_us =
      MedianCallSeconds(tracer, "codec.frame_encode", 20, [&] {
        for (const paxml::Frame& f : frames) {
          paxml::ByteWriter w;
          f.Encode(&w);
          PAXML_CHECK_GT(w.size(), 0u);
        }
      }) / count * 1e6;
  t.frame_decode_us =
      MedianCallSeconds(tracer, "codec.frame_decode", 20, [&] {
        for (const std::string& bytes : encoded) {
          paxml::ByteReader r(bytes);
          PAXML_CHECK(paxml::Frame::Decode(&r).ok());
        }
      }) / count * 1e6;
  t.lz4_compress_us_per_kb =
      MedianCallSeconds(tracer, "codec.lz4_compress", 20, [&] {
        for (const std::string& bytes : encoded) {
          PAXML_CHECK(!paxml::Lz4Compress(bytes).empty());
        }
      }) / kb * 1e6;
  t.lz4_decompress_us_per_kb =
      MedianCallSeconds(tracer, "codec.lz4_decompress", 20, [&] {
        for (size_t i = 0; i < compressed.size(); ++i) {
          PAXML_CHECK(
              paxml::Lz4Decompress(compressed[i], encoded[i].size()).ok());
        }
      }) / kb * 1e6;
  return t;
}

}  // namespace e2ebench
