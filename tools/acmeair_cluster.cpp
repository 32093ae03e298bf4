//===- acmeair_cluster.cpp - run AcmeAir across N event loops ------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Runs the AcmeAir workload across a sharded multi-loop cluster (cluster
// mode's `node cluster` analogue) and reports per-shard and merged-graph
// results:
//
//   acmeair_cluster [--loops N] [--requests N] [--clients N] [--seed N]
//                   [--kernel sim|epoll|uring|auto] [--port N] [--probe]
//                   [--sync] [--no-gossip] [--baseline] [--dot FILE]
//                   [--record-dir DIR] [--sample-budget PCT] [--degrade]
//                   [--fault-spec kind:rate,...|default] [--fault-seed N]
//
// --kernel epoll or uring (Linux only) swaps the virtual-time kernel for a
// real reactor: every loop binds --port with SO_REUSEPORT, the built-in
// wire load generator drives --clients keep-alive HTTP connections, and
// the numbers reported are wall-clock (including the kernel-syscall cost
// model — syscalls/request is where io_uring's batched submission shows).
// --kernel auto probes uring -> epoll -> sim and prints why it chose.
// --probe prints each backend's availability and exits.
//
// --record-dir writes one `.agtrace` per shard (shard<S>.agtrace, v4
// columnar frames) for offline replay and merge. --sample-budget caps each shard pipeline's instrumentation
// overhead at PCT percent of loop wall time; the dropped decoration
// coverage is reported per shard.
//
// --fault-spec enables deterministic fault injection (DESIGN.md §5i) at
// the given per-decision rates; --fault-seed selects the schedule (each
// shard derives its own seed, so the same seed replays the identical
// cluster-wide schedule). --degrade switches the shard pipelines from
// blocking backpressure to the graceful-degradation ladder.
//
// Each loop runs on its own thread with its own runtime, AcmeAir server,
// workload shard, and Async Graph builder (behind a per-shard SPSC ring
// pipeline unless --sync); after the loops join, the per-shard graphs are
// merged with cross-loop edges and the merged warnings are printed.
//
//===----------------------------------------------------------------------===//

#include "apps/cluster/Harness.h"
#include "viz/Dot.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

using namespace asyncg;

namespace {

/// The running harness, for the --serve signal handler (stop() is an
/// atomic store, so calling it from the handler is safe).
cluster::ClusterHarness *ActiveHarness = nullptr;

extern "C" void handleStopSignal(int) {
  if (ActiveHarness)
    ActiveHarness->stop();
}

} // namespace

int main(int argc, char **argv) {
  cluster::ClusterConfig Cfg;
  Cfg.TotalRequests = 2000;
  Cfg.TotalClients = 8;
  Cfg.Mode = ag::PipelineMode::Async;
  std::string DotPath;

  for (int I = 1; I < argc; ++I) {
    auto Num = [&](const char *Flag) -> long long {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", Flag);
        std::exit(2);
      }
      return std::atoll(argv[++I]);
    };
    if (!std::strcmp(argv[I], "--loops"))
      Cfg.Loops = static_cast<uint32_t>(Num("--loops"));
    else if (!std::strcmp(argv[I], "--requests"))
      Cfg.TotalRequests = static_cast<uint64_t>(Num("--requests"));
    else if (!std::strcmp(argv[I], "--clients"))
      Cfg.TotalClients = static_cast<int>(Num("--clients"));
    else if (!std::strcmp(argv[I], "--seed"))
      Cfg.Seed = static_cast<uint64_t>(Num("--seed"));
    else if (!std::strcmp(argv[I], "--port"))
      Cfg.Port = static_cast<int>(Num("--port"));
    else if (!std::strcmp(argv[I], "--kernel")) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "--kernel needs a value\n");
        return 2;
      }
      if (!std::strcmp(argv[I + 1], "auto")) {
        ++I;
        std::string Why;
        Cfg.Backend = sim::resolveAutoKernelBackend(&Why);
        std::fprintf(stderr, "--kernel auto: %s\n", Why.c_str());
      } else if (!sim::parseKernelBackend(argv[++I], Cfg.Backend)) {
        std::fprintf(stderr,
                     "--kernel must be 'auto' or one of the backends "
                     "available here: %s\n",
                     sim::availableKernelBackendNames().c_str());
        return 2;
      }
    } else if (!std::strcmp(argv[I], "--probe")) {
      for (sim::KernelBackend B :
           {sim::KernelBackend::Sim, sim::KernelBackend::Epoll,
            sim::KernelBackend::Uring}) {
        std::string Why;
        sim::kernelBackendAvailable(B, &Why);
        std::printf("%s\n", Why.c_str());
      }
      std::string Why;
      sim::resolveAutoKernelBackend(&Why);
      std::printf("auto: %s\n", Why.c_str());
      return 0;
    } else if (!std::strcmp(argv[I], "--serve"))
      Cfg.ServeOnly = true;
    else if (!std::strcmp(argv[I], "--sync"))
      Cfg.Mode = ag::PipelineMode::Synchronous;
    else if (!std::strcmp(argv[I], "--no-gossip"))
      Cfg.Gossip = false;
    else if (!std::strcmp(argv[I], "--baseline"))
      Cfg.Instrument = false;
    else if (!std::strcmp(argv[I], "--sample-budget")) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "--sample-budget needs a value\n");
        return 2;
      }
      Cfg.SampleBudgetPct = std::atof(argv[++I]);
    } else if (!std::strcmp(argv[I], "--fault-spec")) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "--fault-spec needs a value\n");
        return 2;
      }
      std::string Err;
      if (!sim::FaultSpec::parse(argv[++I], Cfg.Faults, &Err)) {
        std::fprintf(stderr, "--fault-spec: %s\n", Err.c_str());
        return 2;
      }
    } else if (!std::strcmp(argv[I], "--fault-seed"))
      Cfg.FaultSeed = static_cast<uint64_t>(Num("--fault-seed"));
    else if (!std::strcmp(argv[I], "--degrade"))
      Cfg.Policy = ag::BackpressurePolicy::Degrade;
    else if (!std::strcmp(argv[I], "--record-dir")) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "--record-dir needs a value\n");
        return 2;
      }
      Cfg.RecordDir = argv[++I];
    } else if (!std::strcmp(argv[I], "--dot")) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "--dot needs a value\n");
        return 2;
      }
      DotPath = argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--loops N] [--requests N] [--clients N]"
                   " [--seed N]\n"
                   "          [--kernel sim|epoll|uring|auto] [--port N]"
                   " [--probe]\n"
                   "          [--sync] [--no-gossip] [--baseline]"
                   " [--dot FILE]\n"
                   "          [--record-dir DIR] [--sample-budget PCT]\n"
                   "          [--degrade] [--fault-spec kind:rate,...]"
                   " [--fault-seed N]\n",
                   argv[0]);
      return 2;
    }
  }
  {
    std::string Why;
    if (!sim::kernelBackendAvailable(Cfg.Backend, &Why)) {
      std::fprintf(stderr,
                   "kernel backend '%s' is not available here (%s); "
                   "available: %s\n",
                   sim::kernelBackendName(Cfg.Backend), Why.c_str(),
                   sim::availableKernelBackendNames().c_str());
      return 2;
    }
  }
  if (Cfg.ServeOnly && Cfg.Backend == sim::KernelBackend::Sim) {
    std::fprintf(stderr, "--serve needs a real backend (--kernel "
                         "epoll|uring|auto); the sim backend has no wire "
                         "to serve\n");
    return 2;
  }
  if (Cfg.SampleBudgetPct < 0 || Cfg.SampleBudgetPct > 100) {
    std::fprintf(stderr, "--sample-budget must be in [0, 100]\n");
    return 2;
  }
  if (Cfg.Loops == 0 || Cfg.Loops > jsrt::MaxShardId) {
    std::fprintf(stderr, "--loops must be 1..%u\n", jsrt::MaxShardId);
    return 2;
  }

  cluster::ClusterHarness Harness(Cfg);
  if (Cfg.ServeOnly) {
    ActiveHarness = &Harness;
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    std::fprintf(stderr, "serving on 127.0.0.1:%d across %u loop(s); "
                         "SIGINT/SIGTERM stops\n",
                 Cfg.Port, Cfg.Loops);
  }
  cluster::ClusterResult R = Harness.run();
  const bool WireMode = Cfg.Backend != sim::KernelBackend::Sim;

  std::printf("cluster: %u loop(s), %llu requests, %d clients, seed %llu, "
              "kernel %s\n",
              Cfg.Loops,
              static_cast<unsigned long long>(Cfg.TotalRequests),
              Cfg.TotalClients, static_cast<unsigned long long>(Cfg.Seed),
              sim::kernelBackendName(Cfg.Backend));
  std::printf("%-6s %10s %8s %8s %12s %7s %7s %10s\n", "shard", "completed",
              "errors", "served", "virtual(ms)", "sent", "recv", "records");
  for (size_t S = 0; S != R.Shards.size(); ++S) {
    const cluster::ShardResult &SR = R.Shards[S];
    std::printf("s%-5zu %10llu %8llu %8llu %12.2f %7llu %7llu %10llu\n", S,
                static_cast<unsigned long long>(SR.Completed),
                static_cast<unsigned long long>(SR.Errors),
                static_cast<unsigned long long>(SR.Served),
                static_cast<double>(SR.VirtualTimeUs) / 1000.0,
                static_cast<unsigned long long>(SR.Sent),
                static_cast<unsigned long long>(SR.Received),
                static_cast<unsigned long long>(SR.PushedRecords));
  }
  if (!Cfg.RecordDir.empty()) {
    uint64_t Bytes = 0;
    for (const cluster::ShardResult &SR : R.Shards)
      Bytes += SR.RecordedBytes;
    std::printf("recorded: v%u traces, %llu record bytes -> %s/shard*.agtrace\n",
                trace::TraceVersion, static_cast<unsigned long long>(Bytes),
                Cfg.RecordDir.c_str());
  }
  if (Cfg.SampleBudgetPct > 0) {
    for (size_t S = 0; S != R.Shards.size(); ++S) {
      const ag::SamplingStats &SS = R.Shards[S].Sampling;
      std::printf("s%zu sampling: %llu/%llu ticks covered, %llu decoration "
                  "events skipped\n",
                  S, static_cast<unsigned long long>(SS.SampledTicks),
                  static_cast<unsigned long long>(SS.TotalTicks),
                  static_cast<unsigned long long>(SS.DroppedEvents));
    }
  }
  if (Cfg.Faults.any()) {
    std::printf("faults: spec %s, seed %llu: %llu injected over %llu "
                "decision(s)\n",
                Cfg.Faults.str().c_str(),
                static_cast<unsigned long long>(Cfg.FaultSeed),
                static_cast<unsigned long long>(R.FaultsInjected),
                static_cast<unsigned long long>(R.FaultDecisions));
    for (size_t S = 0; S != R.Shards.size(); ++S)
      std::printf("  s%zu digest %016llx (%llu injected)\n", S,
                  static_cast<unsigned long long>(R.Shards[S].FaultDigest),
                  static_cast<unsigned long long>(R.Shards[S].FaultsInjected));
    const sim::NetRecoveryStats &NR = R.Net;
    std::printf("  recovered: %llu EINTR retries, %llu accept pauses, "
                "%llu ENOBUFS backoffs, %llu short writes, %llu resets, "
                "%llu drained conn(s)\n",
                static_cast<unsigned long long>(NR.EintrRetries),
                static_cast<unsigned long long>(NR.AcceptPauses),
                static_cast<unsigned long long>(NR.EnobufsRetries),
                static_cast<unsigned long long>(NR.ShortWrites),
                static_cast<unsigned long long>(NR.ResetsInjected),
                static_cast<unsigned long long>(NR.DrainedConns));
  }
  if (Cfg.Policy == ag::BackpressurePolicy::Degrade) {
    const ag::DegradationStats &D = R.Degradation;
    std::printf("degradation ladder: %llu escalation(s), %llu recover(ies), "
                "%llu record(s) shed, %llu watchdog stall(s); "
                "tier ms lossless/sampled/structural %.1f/%.1f/%.1f\n",
                static_cast<unsigned long long>(D.Escalations),
                static_cast<unsigned long long>(D.Recoveries),
                static_cast<unsigned long long>(D.RecordsShed),
                static_cast<unsigned long long>(D.WatchdogStalls),
                static_cast<double>(D.TimeNs[0]) / 1e6,
                static_cast<double>(D.TimeNs[1]) / 1e6,
                static_cast<double>(D.TimeNs[2]) / 1e6);
  }
  if (WireMode) {
    std::printf("\nwire load: %llu completed, %llu errors, %llu dropped "
                "conn(s)\n",
                static_cast<unsigned long long>(R.Wire.Completed),
                static_cast<unsigned long long>(R.Wire.Errors),
                static_cast<unsigned long long>(R.Wire.DroppedConns));
    std::printf("wall-clock throughput: %.0f req/s, latency p50 %llu us, "
                "p90 %llu us, p99 %llu us\n",
                R.Wire.ReqPerSec,
                static_cast<unsigned long long>(R.Wire.P50Us),
                static_cast<unsigned long long>(R.Wire.P90Us),
                static_cast<unsigned long long>(R.Wire.P99Us));
    // In --serve mode requests are counted by the external client, not the
    // server, so a per-request figure is unknowable here rather than zero.
    char PerReq[32];
    if (R.Wire.Completed)
      std::snprintf(PerReq, sizeof(PerReq), "%.2f/request",
                    static_cast<double>(R.Sys.Syscalls) /
                        static_cast<double>(R.Wire.Completed));
    else
      std::snprintf(PerReq, sizeof(PerReq), "n/a per request");
    std::printf("kernel cost: %llu syscalls (%s), %llu enters, "
                "%llu sqes in %llu batches (max %llu), %llu completions, "
                "%llu zero-syscall reaps, %llu wakeups\n",
                static_cast<unsigned long long>(R.Sys.Syscalls), PerReq,
                static_cast<unsigned long long>(R.Sys.Enters),
                static_cast<unsigned long long>(R.Sys.SqesSubmitted),
                static_cast<unsigned long long>(R.Sys.SubmitBatches),
                static_cast<unsigned long long>(R.Sys.MaxSqeBatch),
                static_cast<unsigned long long>(R.Sys.Completions),
                static_cast<unsigned long long>(R.Sys.ZeroSyscallReaps),
                static_cast<unsigned long long>(R.Sys.Wakeups));
  } else {
    std::printf("\nvirtual throughput: %.0f req/s (slowest shard %.2f ms "
                "virtual)\n",
                R.VirtualThroughput,
                static_cast<double>(R.MaxVirtualTimeUs) / 1000.0);
  }
  std::printf("wall: %.3f s\n", R.WallSeconds);
  if (Cfg.Instrument) {
    std::printf("merged graph: %llu nodes, %llu edges, %llu ticks, "
                "%llu xloop edge(s), %llu warning(s)\n",
                static_cast<unsigned long long>(R.Merge.Nodes),
                static_cast<unsigned long long>(R.Merge.Edges),
                static_cast<unsigned long long>(R.Merge.Ticks),
                static_cast<unsigned long long>(R.Merge.CrossLoopEdges),
                static_cast<unsigned long long>(R.Warnings.size()));
    for (const std::string &W : R.Warnings)
      std::printf("  warning: %s\n", W.c_str());
  }

  if (!DotPath.empty() && Cfg.Instrument) {
    std::ofstream Out(DotPath);
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", DotPath.c_str());
      return 1;
    }
    Out << viz::toDot(Harness.merged());
    std::printf("wrote %s\n", DotPath.c_str());
  }

  // Under fault injection a request may be abandoned after its retry
  // budget, and a retried request can draw a non-200 (its reconnect lands
  // on a sibling shard that never saw the session's login). Both are
  // direct casualties of injected faults, so the gate is then "every
  // request was accounted for, and errors never exceed the connections
  // faults tore down" — nothing hung or vanished. The sim backend's
  // faults are jitter-only, so its gate stays strict.
  bool Ok;
  if (WireMode)
    Ok = Cfg.ServeOnly ||
         (Cfg.Faults.any()
              ? (R.Wire.Completed + R.Wire.Abandoned == Cfg.TotalRequests &&
                 R.Wire.Errors <= R.Wire.DroppedConns + R.Wire.Timeouts)
              : (R.Wire.Completed == Cfg.TotalRequests && R.Wire.Errors == 0 &&
                 R.Wire.DroppedConns == 0));
  else
    Ok = R.TotalCompleted == Cfg.TotalRequests && R.TotalErrors == 0;
  if (!Ok)
    std::printf("RUN FAILED: completed=%llu errors=%llu dropped=%llu\n",
                static_cast<unsigned long long>(
                    WireMode ? R.Wire.Completed : R.TotalCompleted),
                static_cast<unsigned long long>(
                    WireMode ? R.Wire.Errors : R.TotalErrors),
                static_cast<unsigned long long>(R.Wire.DroppedConns));
  return Ok ? 0 : 1;
}
