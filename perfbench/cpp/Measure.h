//===- Measure.h - clocks, histograms and percentile rules ------*- C++ -*-===//
//
// Part of the AsyncG benchmark. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measurement primitives shared by every workload: wall and per-thread CPU
/// clocks, a log-bucketed latency histogram, and the reporting rule for
/// tails — a median plus the highest percentile (at most p99) that still
/// has at least ten samples beyond it, always reported with the sample
/// count.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline uint64_t nowNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

/// CPU time consumed by the calling thread, in nanoseconds.
inline uint64_t threadCpuNs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

/// Cost of one nowNs() call, measured once per process. A timed span
/// contains about one clock read, which the timing forwarders subtract per
/// span so that per-event costs are not inflated by the instrument.
inline uint64_t clockReadNs() {
  static const uint64_t Cost = [] {
    uint64_t Best = ~0ull;
    for (int Trial = 0; Trial != 5; ++Trial) {
      uint64_t T0 = nowNs(), Sink = 0;
      for (int I = 0; I != 20000; ++I)
        Sink += nowNs();
      asm volatile("" : : "r"(Sink));
      Best = std::min(Best, (nowNs() - T0) / 20000);
    }
    return Best;
  }();
  return Cost;
}

/// Wall time of a fixed piece of work that uses no repository code: small
/// allocations, hash-map inserts, lookups and erases, and string building
/// over a working set of a few MB, the mix the analysis spends its time
/// on. Timed back to back with a measured rep, it stands for the host's
/// speed at that moment; no change to the measured program can move it.
inline uint64_t calibrationNs() {
  constexpr int Ops = 200000;
  uint64_t T0 = nowNs();
  std::unordered_map<uint64_t, std::string> Map;
  uint64_t X = 0x9e3779b97f4a7c15ull, Sum = 0;
  for (int I = 0; I != Ops; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    uint64_t Key = X % 65536;
    std::string &S = Map[Key];
    S += static_cast<char>('a' + X % 26);
    if (S.size() > 48)
      Map.erase(Key);
    auto It = Map.find((X >> 20) % 65536);
    Sum += It == Map.end() ? 1 : It->second.size();
  }
  asm volatile("" : : "r"(Sum) : "memory");
  return nowNs() - T0;
}

/// Minimum number of samples a reported tail percentile must leave beyond
/// it.
constexpr uint64_t TailSamplesBeyond = 10;

/// The tail quantile reported for \p N samples: \p Target (p99) when at
/// least TailSamplesBeyond samples lie beyond it, otherwise the highest
/// whole percentile that does, never below the median.
inline double tailQuantileFor(uint64_t N, double Target = 0.99) {
  if (N == 0)
    return 0.5;
  double Pct = std::floor(100.0 - 100.0 * static_cast<double>(
                                              TailSamplesBeyond) /
                                      static_cast<double>(N) + 1e-9);
  double Q = Pct / 100.0;
  return std::max(0.5, std::min(Target, Q));
}

/// Quantile \p Q of an ascending-sorted sample, linearly interpolated
/// between closest ranks (rank = Q * (N - 1)).
inline double quantileSorted(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  double Rank = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

/// Median of an unsorted sample.
inline double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return quantileSorted(V, 0.5);
}

/// Log-bucketed histogram of non-negative integer values (nanoseconds):
/// 2^SubBits linear sub-buckets per power of two, so every value is kept
/// to within 2^-SubBits relative error. Quantiles interpolate inside the
/// bucket. Fixed memory, O(1) insert, mergeable.
class LogHistogram {
public:
  static constexpr unsigned SubBits = 7;
  static constexpr uint64_t SubCount = 1ull << SubBits;

  LogHistogram() : Counts((64 - SubBits + 1) * SubCount, 0) {}

  void add(uint64_t V) {
    ++Counts[bucketOf(V)];
    ++Total;
    Max = std::max(Max, V);
  }

  void merge(const LogHistogram &O) {
    for (size_t I = 0; I != Counts.size(); ++I)
      Counts[I] += O.Counts[I];
    Total += O.Total;
    Max = std::max(Max, O.Max);
  }

  uint64_t count() const { return Total; }
  uint64_t max() const { return Max; }

  /// Value at quantile \p Q (same rank convention as quantileSorted).
  double quantile(double Q) const {
    if (Total == 0)
      return 0;
    double Rank = Q * static_cast<double>(Total - 1);
    uint64_t Seen = 0;
    for (size_t B = 0; B != Counts.size(); ++B) {
      uint64_t C = Counts[B];
      if (C == 0)
        continue;
      if (static_cast<double>(Seen + C) > Rank) {
        // Spread the bucket's C samples evenly over its value range.
        double Lo = static_cast<double>(bucketLow(B));
        double Width = static_cast<double>(bucketLow(B + 1)) - Lo;
        double Within = (Rank - static_cast<double>(Seen) + 0.5) /
                        static_cast<double>(C);
        return std::min(Lo + Width * Within, static_cast<double>(Max));
      }
      Seen += C;
    }
    return static_cast<double>(Max);
  }

  /// Bucket index of \p V: values below SubCount map one-to-one; above,
  /// each power of two is split into SubCount equal sub-buckets.
  static size_t bucketOf(uint64_t V) {
    if (V < SubCount)
      return static_cast<size_t>(V);
    unsigned Msb = 63 - static_cast<unsigned>(__builtin_clzll(V));
    unsigned Shift = Msb - SubBits;
    uint64_t Sub = (V >> Shift) - SubCount;
    return static_cast<size_t>((Shift + 1) * SubCount + Sub);
  }

  /// Smallest value that lands in bucket \p B.
  static uint64_t bucketLow(size_t B) {
    if (B < SubCount)
      return B;
    uint64_t Shift = B / SubCount - 1;
    uint64_t Sub = B % SubCount;
    return (SubCount + Sub) << Shift;
  }

private:
  std::vector<uint64_t> Counts;
  uint64_t Total = 0;
  uint64_t Max = 0;
};

/// A median + tail summary in the reporting rule's shape.
struct TailSummary {
  double P50 = 0;
  double Tail = 0;
  /// The quantile Tail was taken at (0.99 once there are enough samples).
  double TailQ = 0;
  uint64_t Samples = 0;
};

inline TailSummary summarize(const LogHistogram &H, double Target = 0.99) {
  TailSummary S;
  S.Samples = H.count();
  S.TailQ = tailQuantileFor(S.Samples, Target);
  S.P50 = H.quantile(0.5);
  S.Tail = H.quantile(S.TailQ);
  return S;
}

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
