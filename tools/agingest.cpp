//===- agingest.cpp - parallel trace ingestion front end -----------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Ingests one or more recorded `.agtrace` streams into a single Async
// Graph through the parallel ingest hub (ag/IngestHub.h):
//
//   agingest --in a.agtrace [--in b.agtrace ...] [--jobs N] [--window N]
//            [--serial] [--nopromise] [--retire] [--retain-window N]
//            [--no-detect] [--dot FILE] [--quiet]
//
// Multiple --in streams are merged shard-major in argument order (pass
// cluster shards in shard-id order). --jobs picks the decode parallelism
// (1 = inline pipelined, the default). --serial bypasses the hub entirely
// and rebuilds the graph through the classic replayTrace() +
// ShardedGraph::build() path — the reference for parity checks: for any
// input set, `agingest --serial` and `agingest --jobs N` must produce
// byte-identical stdout and --dot output.
//
// stdout carries only the deterministic warnings report; ingestion and
// merge statistics go to stderr (suppressed by --quiet).
//
//===----------------------------------------------------------------------===//

#include "ag/Builder.h"
#include "ag/IngestHub.h"
#include "ag/ShardedGraph.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "viz/Dot.h"
#include "viz/TextReport.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace asyncg;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s --in FILE [--in FILE ...] [--jobs N] [--window N]\n"
               "           [--serial] [--nopromise] [--retire]"
               " [--retain-window N]\n"
               "           [--no-detect] [--dot FILE] [--quiet]\n",
               Prog);
  return 2;
}

bool writeFile(const std::string &Path, const std::string &Content) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = Content.empty() ||
            std::fwrite(Content.data(), 1, Content.size(), F) ==
                Content.size();
  return std::fclose(F) == 0 && Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Inputs;
  std::string DotFile;
  bool Serial = false, NoPromise = false, Retire = false, NoDetect = false;
  bool Quiet = false;
  unsigned long Jobs = 1, Window = 256, RetainWindow = 8;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    auto NextNum = [&](unsigned long &Out, unsigned long Min) {
      std::string N;
      if (!Next(N))
        return false;
      char *End = nullptr;
      Out = std::strtoul(N.c_str(), &End, 10);
      return End != N.c_str() && *End == '\0' && Out >= Min;
    };
    if (Arg == "--in") {
      std::string In;
      if (!Next(In))
        return usage(Argv[0]);
      Inputs.push_back(In);
    } else if (Arg == "--jobs") {
      if (!NextNum(Jobs, 1)) {
        std::fprintf(stderr, "error: --jobs expects a positive count\n");
        return 2;
      }
    } else if (Arg == "--window") {
      if (!NextNum(Window, 1)) {
        std::fprintf(stderr, "error: --window expects a positive tick "
                             "count\n");
        return 2;
      }
    } else if (Arg == "--retain-window") {
      if (!NextNum(RetainWindow, 1)) {
        std::fprintf(stderr, "error: --retain-window expects a positive "
                             "tick count\n");
        return 2;
      }
    } else if (Arg == "--serial")
      Serial = true;
    else if (Arg == "--nopromise")
      NoPromise = true;
    else if (Arg == "--retire")
      Retire = true;
    else if (Arg == "--no-detect")
      NoDetect = true;
    else if (Arg == "--quiet")
      Quiet = true;
    else if (Arg == "--dot" && Next(DotFile))
      continue;
    else
      return usage(Argv[0]);
  }
  if (Inputs.empty())
    return usage(Argv[0]);

  ag::BuilderConfig Config;
  Config.TrackPromises = !NoPromise;
  Config.Retire = Retire;
  Config.RetainWindow = static_cast<uint32_t>(RetainWindow);

  // One builder + detector suite per stream either way; the suite holds
  // per-graph state, so it is never shared across builders.
  std::vector<std::unique_ptr<detect::DetectorSuite>> Suites;

  const ag::AsyncGraph *Result = nullptr;

  // Serial reference path: classic replay + single-shot batch merge.
  std::vector<std::unique_ptr<ag::AsyncGBuilder>> SerialBuilders;
  ag::ShardedGraph SerialMerged;

  // Hub path.
  ag::IngestOptions Opts;
  Opts.Jobs = static_cast<unsigned>(Jobs);
  Opts.WindowTicks = static_cast<uint32_t>(Window);
  Opts.Builder = Config;
  ag::IngestHub Hub(Opts);

  if (Serial) {
    for (const std::string &In : Inputs) {
      SerialBuilders.emplace_back(new ag::AsyncGBuilder(Config));
      if (!NoDetect) {
        Suites.emplace_back(new detect::DetectorSuite());
        Suites.back()->attachTo(*SerialBuilders.back());
      }
      std::string Err;
      if (!instr::replayTrace(In, *SerialBuilders.back(), &Err)) {
        std::fprintf(stderr, "error: %s: %s\n", In.c_str(), Err.c_str());
        return 1;
      }
    }
    if (Inputs.size() > 1) {
      std::vector<const ag::AsyncGraph *> Shards;
      for (auto &B : SerialBuilders)
        Shards.push_back(&B->graph());
      SerialMerged.build(Shards);
      Result = &SerialMerged.merged();
    } else {
      Result = &SerialBuilders.front()->graph();
    }
  } else {
    for (const std::string &In : Inputs) {
      size_t S = Hub.addFile(In);
      if (!NoDetect) {
        Suites.emplace_back(new detect::DetectorSuite());
        Suites.back()->attachTo(Hub.builder(S));
      }
    }
    std::string Err;
    if (!Hub.run(&Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    Result = &Hub.graph();

    if (!Quiet) {
      const ag::IngestStats &IS = Hub.stats();
      std::fprintf(stderr,
                   "ingest: %llu records in %llu frames across %zu "
                   "stream(s), %llu window turns, jobs=%lu\n",
                   static_cast<unsigned long long>(IS.Records),
                   static_cast<unsigned long long>(IS.Frames),
                   Hub.streams(),
                   static_cast<unsigned long long>(IS.Windows), Jobs);
      for (const ag::IngestStreamStats &SS : IS.Streams)
        std::fprintf(stderr,
                     "  %s: v%u %llu records%s%s\n", SS.Path.c_str(),
                     SS.Version,
                     static_cast<unsigned long long>(SS.Records),
                     SS.Recovered ? " (recovered prefix)" : "",
                     SS.BadRecords ? " [bad records]" : "");
      if (Hub.streams() > 1) {
        const ag::MergeStats &MS = Hub.mergeStats();
        std::fprintf(stderr,
                     "merge: %llu ticks, %llu nodes, %llu xloop edges "
                     "(%llu unresolved); live handoffs %llu/%llu\n",
                     static_cast<unsigned long long>(MS.Ticks),
                     static_cast<unsigned long long>(MS.Nodes),
                     static_cast<unsigned long long>(MS.CrossLoopEdges),
                     static_cast<unsigned long long>(MS.UnresolvedHandoffs),
                     static_cast<unsigned long long>(
                         IS.HandoffsResolvedLive),
                     static_cast<unsigned long long>(IS.HandoffsSeen));
      }
    }
  }

  if (!DotFile.empty() && !writeFile(DotFile, viz::toDot(*Result))) {
    std::fprintf(stderr, "error: cannot write %s\n", DotFile.c_str());
    return 1;
  }
  std::fputs(viz::warningsReport(*Result).c_str(), stdout);
  return 0;
}
