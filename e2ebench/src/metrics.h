// The benchmark's own arithmetic: percentiles, query mixes and /proc
// parsing. Kept apart from the workloads so the tests can pin each rule
// without building a cluster.

#ifndef E2EBENCH_METRICS_H_
#define E2EBENCH_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value at
/// rank ceil(p/100 * n), 1-based.
double Percentile(const std::vector<double>& sorted, double p);

/// Samples that lie beyond the nearest-rank percentile `p` of `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// The fewest samples for which at least `beyond` lie past percentile `p`:
/// a window reports its p99 only once it holds this many.
size_t MinSamplesFor(double p, size_t beyond);

/// Median of an unsorted list (mean of the middle two for even sizes).
double Median(std::vector<double> values);

/// A deterministic query mix: class indices drawn so that every block of
/// sum(weights)/gcd(weights) consecutive queries holds each class exactly
/// weight/gcd times, shuffled per block from (seed, stream). The class
/// shares are therefore exact at every block boundary, which keeps the
/// per-query work of a timed window independent of the seed.
std::vector<int> MakeMix(const std::vector<int>& weights, uint64_t seed,
                         uint64_t stream, size_t count);

/// CPU time (user + system) in clock ticks from the text of
/// /proc/<pid>/stat, or nullopt if the text does not parse. The command
/// name may hold spaces and parentheses; fields are counted after the
/// last ')'.
std::optional<uint64_t> ParseStatCpuTicks(std::string_view stat);

/// VmHWM (peak resident set) in KiB from the text of /proc/<pid>/status,
/// or nullopt when the line is missing.
std::optional<uint64_t> ParseStatusHwmKb(std::string_view status);

/// Time the hypervisor ran other guests on this machine's processors
/// ("steal") and all time, both in clock ticks summed over processors, from
/// the text of /proc/stat; nullopt if its "cpu " line does not parse.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
std::optional<CpuTicks> ParseProcStatTicks(std::string_view stat);

/// The machine's ticks so far (zeros when /proc/stat cannot be read).
CpuTicks MachineTicks();

/// CPU seconds of process `pid` (0 means this process) so far.
std::optional<double> ProcessCpuSeconds(int pid);

/// Peak resident set of process `pid` (0 means this process) in MiB.
std::optional<double> ProcessHwmMb(int pid);

}  // namespace e2ebench

#endif  // E2EBENCH_METRICS_H_
