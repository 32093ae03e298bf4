//===- selftest.cpp - the benchmark's own tests -------------------------------===//
//
// Part of the AsyncG benchmark. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Checks the measuring instruments rather than the measured program:
//
//  - forwarder completeness: every Table-I case builds a byte-identical
//    DOT and the same warnings with the timing forwarders in the way, both
//    inline and behind the pipeline;
//  - the wire generator's arrival schedule and request streams are a pure
//    function of the seed;
//  - percentile, tail-rule and histogram logic on known inputs.
//
// Run: python3 perfbench/run.py --selftest
//
//===----------------------------------------------------------------------===//

#include "Rig.h"

#include "apps/cluster/Harness.h"
#include "cases/Case.h"
#include "viz/Dot.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace perfbench;
using namespace asyncg;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::printf("FAIL: %s\n", What.c_str());
  }
}

void testPercentiles() {
  check(tailQuantileFor(100000) == 0.99, "p99 with 100000 samples");
  check(tailQuantileFor(1000) == 0.99, "p99 with exactly 10 samples beyond");
  check(tailQuantileFor(999) == 0.98, "p98 below 1000 samples");
  check(tailQuantileFor(500) == 0.98, "p98 with 500 samples");
  check(tailQuantileFor(100) == 0.90, "p90 with 100 samples");
  check(tailQuantileFor(15) == 0.5, "median floor with 15 samples");
  check(tailQuantileFor(0) == 0.5, "no samples");

  std::vector<double> V;
  for (int I = 1; I <= 101; ++I)
    V.push_back(I);
  check(quantileSorted(V, 0.5) == 51, "median of 1..101");
  check(quantileSorted(V, 0.99) == 100, "p99 of 1..101");
  check(quantileSorted({1, 2}, 0.5) == 1.5, "interpolated median");
  check(median({5, 1, 3}) == 3, "median of unsorted");

  for (uint64_t X : {0ull, 1ull, 127ull, 128ull, 129ull, 255ull, 256ull,
                     1000ull, 123456789ull, 1ull << 40}) {
    size_t B = LogHistogram::bucketOf(X);
    check(LogHistogram::bucketLow(B) <= X && X < LogHistogram::bucketLow(B + 1),
          "bucket bounds of " + std::to_string(X));
  }
  LogHistogram H;
  for (uint64_t I = 1; I <= 100000; ++I)
    H.add(I * 10);
  TailSummary S = summarize(H);
  check(S.Samples == 100000, "histogram count");
  check(S.TailQ == 0.99, "histogram tail quantile");
  check(std::abs(S.P50 - 500000) / 500000 < 0.01, "histogram median within 1%");
  check(std::abs(S.Tail - 990000) / 990000 < 0.01, "histogram p99 within 1%");
  LogHistogram Few;
  for (uint64_t I = 1; I <= 100; ++I)
    Few.add(I);
  TailSummary SF = summarize(Few);
  check(SF.TailQ == 0.90 && SF.Samples == 100, "tail rule on 100 samples");
  check(std::abs(SF.Tail - 90.1) < 1.0, "p90 of 1..100");
}

void testSchedule() {
  auto Draw = [](uint64_t Seed) {
    ArrivalSchedule S(Seed, 1000);
    std::vector<uint64_t> Due;
    for (int I = 0; I != 2000; ++I)
      Due.push_back(S.next());
    return Due;
  };
  std::vector<uint64_t> A = Draw(42), B = Draw(42), C = Draw(43);
  check(A == B, "same seed gives the same arrival schedule");
  check(A != C, "another seed gives another arrival schedule");
  double MeanGapMs = static_cast<double>(A.back()) / 1e6 / 2000;
  check(MeanGapMs > 0.9 && MeanGapMs < 1.1, "mean gap matches the rate");
  bool Sorted = std::is_sorted(A.begin(), A.end());
  check(Sorted, "due times are monotone");

  auto Stream = [](uint64_t Seed, unsigned Conn) {
    SessionStream S(Seed, Conn, 100, acmeair::WorkloadMix());
    std::vector<std::string> Out;
    for (int I = 0; I != 200; ++I) {
      Out.push_back(S.next());
      if (Out.back().find("/login") != std::string::npos)
        S.onResponse(200, "OK token=t" + std::to_string(I));
    }
    return Out;
  };
  check(Stream(7, 0) == Stream(7, 0), "same seed gives the same requests");
  check(Stream(7, 0) != Stream(7, 1), "connections draw their own streams");
  check(Stream(7, 0).front().rfind("POST /rest/api/login", 0) == 0,
        "a session starts by logging in");

  std::string In = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 "
                   "404 Not Found\r\ncontent-length: 0\r\n\r\nHTTP/1.1 200";
  int Status = 0;
  std::string Body;
  check(popHttpResponse(In, Status, Body) && Status == 200 && Body == "hello",
        "parse a framed response");
  check(popHttpResponse(In, Status, Body) && Status == 404 && Body.empty(),
        "parse a lowercase header");
  check(!popHttpResponse(In, Status, Body), "wait for a partial response");
}

struct CaseOutput {
  std::string Dot;
  std::vector<std::string> Warnings;
  /// Builder state the DOT does not show (pending registrations, region
  /// accounting): a dropped release or API event changes it.
  size_t Footprint = 0;
};

CaseOutput runProxied(const cases::CaseDef &Def, bool Fixed,
                      const RigConfig &Config) {
  AnalysisRig Rig(Config);
  cases::runCaseWith(Def, Fixed, *Rig.hook());
  Rig.stop();
  return {viz::toDot(Rig.Builder.graph()), Rig.warnings(),
          Rig.Builder.memoryFootprint()};
}

void testForwarderParity() {
  size_t Cases = 0;
  for (const cases::CaseDef &Def : cases::allCases()) {
    for (bool Fixed : {false, true}) {
      if (Fixed && !Def.HasFix)
        continue;
      ++Cases;
      std::string Name = Def.Name + (Fixed ? " (fixed)" : "");
      // Same transport with and without forwarders: the forwarders must be
      // invisible. (The pipeline transport itself is not compared with the
      // inline one here; that is the program's own parity suite's job.)
      for (int Mode = 0; Mode != 4; ++Mode) {
        bool Pipeline = Mode & 1;
        RigConfig C;
        C.Retire = Mode & 2;
        C.Pipeline = Pipeline;
        CaseOutput Ref = runProxied(Def, Fixed, C);
        for (Tracing T : {Tracing::Suite, Tracing::Members}) {
          C.Trace = T;
          CaseOutput Got = runProxied(Def, Fixed, C);
          std::string How =
              std::string(T == Tracing::Suite ? "suite" : "member") +
              (Pipeline ? " forwarders behind the pipeline"
                        : " forwarders inline") +
              (C.Retire ? ", retiring" : "");
          check(!Ref.Dot.empty() && Got.Dot == Ref.Dot,
                Name + ": DOT differs with " + How);
          check(Got.Warnings == Ref.Warnings,
                Name + ": warnings differ with " + How);
          check(Got.Footprint == Ref.Footprint,
                Name + ": builder state differs with " + How);
        }
      }
    }
  }
  check(Cases >= 15, "every Table-I case ran");
}

} // namespace

int main() {
  testPercentiles();
  testSchedule();
  testForwarderParity();
  if (Failures) {
    std::printf("%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("all benchmark self-tests passed\n");
  return 0;
}
