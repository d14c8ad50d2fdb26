#include "sim/stats.h"

#include <algorithm>

#include "common/string_util.h"

namespace paxml {

int RunLedger::max_visits() const {
  int m = 0;
  for (const SiteStats& s : per_site) m = std::max(m, s.visits);
  return m;
}

uint64_t RunLedger::total_visits() const {
  uint64_t n = 0;
  for (const SiteStats& s : per_site) n += static_cast<uint64_t>(s.visits);
  return n;
}

std::string RunLedger::Diff(const RunLedger& other) const {
  std::string out;
  auto field = [&](const std::string& name, uint64_t x, uint64_t y) {
    if (x != y) {
      out += StringFormat("%s: %llu != %llu\n", name.c_str(),
                          static_cast<unsigned long long>(x),
                          static_cast<unsigned long long>(y));
    }
  };
  field("rounds", static_cast<uint64_t>(rounds),
        static_cast<uint64_t>(other.rounds));
  field("total_messages", total_messages, other.total_messages);
  field("total_envelopes", total_envelopes, other.total_envelopes);
  field("total_bytes", total_bytes, other.total_bytes);
  field("answer_bytes", answer_bytes, other.answer_bytes);
  field("data_bytes_shipped", data_bytes_shipped, other.data_bytes_shipped);
  field("wire_bytes", wire_bytes, other.wire_bytes);
  field("wire_raw_bytes", wire_raw_bytes, other.wire_raw_bytes);
  field("wire_frames_compressed", wire_frames_compressed,
        other.wire_frames_compressed);
  field("delta_logical_bytes", delta_logical_bytes, other.delta_logical_bytes);
  field("delta_wire_bytes", delta_wire_bytes, other.delta_wire_bytes);
  field("per_site.size", per_site.size(), other.per_site.size());
  for (size_t i = 0; i < std::min(per_site.size(), other.per_site.size());
       ++i) {
    const SiteStats& x = per_site[i];
    const SiteStats& y = other.per_site[i];
    const std::string site = StringFormat("per_site[%zu].", i);
    field(site + "visits", static_cast<uint64_t>(x.visits),
          static_cast<uint64_t>(y.visits));
    field(site + "bytes_sent", x.bytes_sent, y.bytes_sent);
    field(site + "bytes_received", x.bytes_received, y.bytes_received);
    field(site + "messages_sent", x.messages_sent, y.messages_sent);
    field(site + "messages_received", x.messages_received,
          y.messages_received);
  }
  std::map<std::pair<SiteId, SiteId>, std::pair<const EdgeStats*,
                                                const EdgeStats*>> edge_pairs;
  for (const auto& [key, e] : edges) edge_pairs[key].first = &e;
  for (const auto& [key, e] : other.edges) edge_pairs[key].second = &e;
  for (const auto& [key, pair] : edge_pairs) {
    const std::string edge =
        StringFormat("edges[%d->%d]", key.first, key.second);
    if (pair.first == nullptr || pair.second == nullptr) {
      out += edge + (pair.first == nullptr ? ": only in other\n"
                                           : ": only in this\n");
      continue;
    }
    field(edge + ".messages", pair.first->messages, pair.second->messages);
    field(edge + ".envelopes", pair.first->envelopes, pair.second->envelopes);
    field(edge + ".bytes", pair.first->bytes, pair.second->bytes);
  }
  return out;
}

std::string RunStats::ToString() const {
  std::string out;
  out += StringFormat(
      "rounds=%d messages=%llu envelopes=%llu bytes=%llu (answers=%llu, "
      "data=%llu) wire=%llu\n",
      rounds, static_cast<unsigned long long>(total_messages),
      static_cast<unsigned long long>(total_envelopes),
      static_cast<unsigned long long>(total_bytes),
      static_cast<unsigned long long>(answer_bytes),
      static_cast<unsigned long long>(data_bytes_shipped),
      static_cast<unsigned long long>(wire_bytes));
  if (wire_raw_bytes != wire_bytes || wire_frames_compressed > 0) {
    out += StringFormat(
        "wire-raw=%llu frames-compressed=%llu\n",
        static_cast<unsigned long long>(wire_raw_bytes),
        static_cast<unsigned long long>(wire_frames_compressed));
  }
  if (delta_logical_bytes > 0) {
    out += StringFormat(
        "delta-coded: logical=%llu wire=%llu\n",
        static_cast<unsigned long long>(delta_logical_bytes),
        static_cast<unsigned long long>(delta_wire_bytes));
  }
  out += StringFormat(
      "parallel=%.6fs total-compute=%.6fs coordinator=%.6fs max-visits=%d\n",
      parallel_seconds, total_compute_seconds, coordinator_seconds,
      max_visits());
  if (memo_fragment_hits > 0) {
    out += StringFormat(
        "memo: fragment-hits=%llu saved-bytes=%llu saved-compute=%.6fs\n",
        static_cast<unsigned long long>(memo_fragment_hits),
        static_cast<unsigned long long>(memo_saved_bytes),
        memo_saved_seconds);
  }
  for (size_t i = 0; i < per_site.size(); ++i) {
    const SiteStats& s = per_site[i];
    out += StringFormat(
        "  site %zu: visits=%d sent=%s recv=%s compute=%.6fs\n", i, s.visits,
        HumanBytes(s.bytes_sent).c_str(), HumanBytes(s.bytes_received).c_str(),
        i < site_compute_seconds.size() ? site_compute_seconds[i] : 0.0);
  }
  for (const auto& [edge, e] : edges) {
    out += StringFormat("  edge %d->%d: messages=%llu envelopes=%llu bytes=%s\n",
                        edge.first, edge.second,
                        static_cast<unsigned long long>(e.messages),
                        static_cast<unsigned long long>(e.envelopes),
                        HumanBytes(e.bytes).c_str());
  }
  return out;
}

}  // namespace paxml
