//===- GBenchMain.h - BENCHMARK_MAIN with --json support --------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replacement for BENCHMARK_MAIN() used by the google-benchmark harnesses
/// (micro_ag, micro_eventloop). Keeps the normal console output and, when
/// the binary is invoked with `--json <path>`, also writes a BenchReport
/// capturing each benchmark's real time, its items/s counter and any
/// other user counter, with the host's hardware thread count (`hw_threads`)
/// in the config.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_BENCH_GBENCHMAIN_H
#define ASYNCG_BENCH_GBENCHMAIN_H

#include "BenchReport.h"

#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace asyncg {
namespace benchjson {

/// Console reporter that also records each run's headline numbers.
class CaptureReporter : public benchmark::ConsoleReporter {
public:
  struct Sample {
    std::string Name;
    double RealTime;
    std::string TimeUnit;
    double ItemsPerSecond; // < 0 when the benchmark reports no counter
    /// Every other user counter, by name.
    std::vector<std::pair<std::string, double>> Counters;
  };

  std::vector<Sample> Samples;

  void ReportRuns(const std::vector<Run> &Reports) override {
    benchmark::ConsoleReporter::ReportRuns(Reports);
    for (const Run &R : Reports) {
      if (R.error_occurred || R.run_type != Run::RT_Iteration)
        continue;
      Sample S;
      S.Name = R.benchmark_name();
      S.RealTime = R.GetAdjustedRealTime();
      S.TimeUnit = benchmark::GetTimeUnitString(R.time_unit);
      auto It = R.counters.find("items_per_second");
      S.ItemsPerSecond = It != R.counters.end()
                             ? static_cast<double>(It->second.value)
                             : -1.0;
      for (const auto &[Name, C] : R.counters)
        if (Name != "items_per_second")
          S.Counters.emplace_back(Name, static_cast<double>(C.value));
      Samples.push_back(std::move(S));
    }
  }
};

/// Drop-in main() body: strips --json, runs the registered benchmarks,
/// and writes the report if requested.
inline int gbenchMain(int Argc, char **Argv, const char *BenchName) {
  std::string JsonPath = extractJsonPath(Argc, Argv);
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  CaptureReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  if (JsonPath.empty())
    return 0;

  BenchReport Report(BenchName);
  Report.config("harness", "google-benchmark");
  Report.config("hw_threads",
                static_cast<double>(std::thread::hardware_concurrency()));
  for (const CaptureReporter::Sample &S : Reporter.Samples) {
    Report.metric(S.Name + "/real_time", S.RealTime, S.TimeUnit);
    if (S.ItemsPerSecond >= 0)
      Report.metric(S.Name + "/items_per_second", S.ItemsPerSecond,
                    "items/s");
    for (const auto &[Name, Value] : S.Counters)
      Report.metric(S.Name + "/" + Name, Value,
                    Name.rfind("ns_per_", 0) == 0 ? "ns" : "count");
  }
  return Report.write(JsonPath) ? 0 : 1;
}

} // namespace benchjson
} // namespace asyncg

#endif // ASYNCG_BENCH_GBENCHMAIN_H
