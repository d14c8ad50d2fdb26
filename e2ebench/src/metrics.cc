#include "metrics.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"

namespace e2ebench {

namespace {

size_t NearestRank(size_t n, double p) {
  // The epsilon keeps binary rounding (99.99 / 100 * 1e5 = 99990.000...1)
  // from pushing an exact rank up by one.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  PAXML_CHECK(!sorted.empty());
  return sorted[NearestRank(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

size_t MinSamplesFor(double p, size_t beyond) {
  PAXML_CHECK_LT(p, 100.0);  // nothing lies beyond the maximum
  size_t n = 1;
  while (SamplesBeyond(n, p) < beyond) ++n;
  return n;
}

double Median(std::vector<double> values) {
  PAXML_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<int> MakeMix(const std::vector<int>& weights, uint64_t seed,
                         uint64_t stream, size_t count) {
  int g = 0;
  for (int w : weights) {
    PAXML_CHECK_GE(w, 0);
    g = std::gcd(g, w);
  }
  PAXML_CHECK_GT(g, 0);
  std::vector<int> block;
  for (size_t c = 0; c < weights.size(); ++c) {
    block.insert(block.end(), static_cast<size_t>(weights[c] / g),
                 static_cast<int>(c));
  }
  paxml::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  std::vector<int> mix;
  mix.reserve(count + block.size());
  while (mix.size() < count) {
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.NextBounded(i)]);
    }
    mix.insert(mix.end(), block.begin(), block.end());
  }
  mix.resize(count);
  return mix;
}

std::optional<uint64_t> ParseStatCpuTicks(std::string_view stat) {
  const size_t close = stat.rfind(')');
  if (close == std::string_view::npos) return std::nullopt;
  // After "pid (comm)": field 3 is the state; utime and stime are fields
  // 14 and 15, i.e. the 12th and 13th tokens after the parenthesis.
  std::istringstream in{std::string(stat.substr(close + 1))};
  std::string token;
  uint64_t utime = 0;
  uint64_t stime = 0;
  for (int field = 3; field <= 15; ++field) {
    if (!(in >> token)) return std::nullopt;
    if (field < 14) continue;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') return std::nullopt;
    (field == 14 ? utime : stime) = v;
  }
  return utime + stime;
}

std::optional<uint64_t> ParseStatusHwmKb(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  size_t pos = 0;
  while (pos < status.size()) {
    size_t eol = status.find('\n', pos);
    if (eol == std::string_view::npos) eol = status.size();
    const std::string_view line = status.substr(pos, eol - pos);
    if (line.substr(0, kKey.size()) == kKey) {
      unsigned long long kb = 0;
      if (std::sscanf(std::string(line.substr(kKey.size())).c_str(), "%llu kB",
                      &kb) != 1) {
        return std::nullopt;
      }
      return kb;
    }
    pos = eol + 1;
  }
  return std::nullopt;
}

std::optional<CpuTicks> ParseProcStatTicks(std::string_view stat) {
  constexpr std::string_view kKey = "cpu ";
  if (stat.substr(0, kKey.size()) != kKey) return std::nullopt;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest times are already inside user and nice.
  const std::string_view line = stat.substr(0, stat.find('\n'));
  std::istringstream in{std::string(line.substr(kKey.size()))};
  CpuTicks ticks;
  for (int field = 1; field <= 8; ++field) {
    unsigned long long v = 0;
    if (!(in >> v)) return std::nullopt;
    ticks.total += v;
    if (field == 8) ticks.steal = v;
  }
  return ticks;
}

namespace {

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string ProcPath(int pid, const char* file) {
  return pid == 0 ? std::string("/proc/self/") + file
                  : "/proc/" + std::to_string(pid) + "/" + file;
}

}  // namespace

std::optional<double> ProcessCpuSeconds(int pid) {
  const auto text = ReadFile(ProcPath(pid, "stat"));
  if (!text) return std::nullopt;
  const auto ticks = ParseStatCpuTicks(*text);
  if (!ticks) return std::nullopt;
  return static_cast<double>(*ticks) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::optional<double> ProcessHwmMb(int pid) {
  const auto text = ReadFile(ProcPath(pid, "status"));
  if (!text) return std::nullopt;
  const auto kb = ParseStatusHwmKb(*text);
  if (!kb) return std::nullopt;
  return static_cast<double>(*kb) / 1024.0;
}

CpuTicks MachineTicks() {
  const auto text = ReadFile("/proc/stat");
  if (!text) return {};
  return ParseProcStatTicks(*text).value_or(CpuTicks{});
}

}  // namespace e2ebench
