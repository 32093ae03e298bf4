//===- WireLoad.h - open-loop HTTP load generator ---------------*- C++ -*-===//
//
// Part of the AsyncG benchmark. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-loop load generator for the AcmeAir wire server. Requests fall
/// due on a seeded Poisson schedule whatever the server does; a due
/// request waits in the client backlog until one of the keep-alive
/// connections is idle. Latency is timed from the due time, so a server
/// that falls behind pays for the queueing it causes. Every connection
/// follows LoadGen's session flow: log in until a token is held, then draw
/// operations from the WorkloadMix on its own seeded stream.
///
/// One thread, at most a handful of connections, no allocation per request
/// beyond the request text.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WIRELOAD_H
#define PERFBENCH_WIRELOAD_H

#include "Measure.h"

#include "apps/acmeair/Workload.h"
#include "sim/Random.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The seeded arrival process: exponential inter-arrival gaps at a fixed
/// mean rate. next() returns the due time of the next request in
/// nanoseconds after the start of the schedule.
class ArrivalSchedule {
public:
  ArrivalSchedule(uint64_t Seed, double RatePerSec)
      : Rng(Seed * 0x2545f4914f6cdd1dull + 17), MeanGapNs(1e9 / RatePerSec) {}

  uint64_t next() {
    double U = Rng.nextDouble();
    AtNs += -std::log1p(-U) * MeanGapNs;
    return static_cast<uint64_t>(AtNs);
  }

private:
  asyncg::sim::Random Rng;
  double MeanGapNs;
  double AtNs = 0;
};

/// One connection's request stream: LoadGen's login flow and operation
/// mix, drawn from a stream seeded by (seed, connection index).
class SessionStream {
public:
  SessionStream(uint64_t Seed, unsigned Conn, int Customers,
                const asyncg::acmeair::WorkloadMix &Mix);

  /// The next request as HTTP/1.1 bytes.
  std::string next();

  /// Feeds a response back; a successful login sets the session token.
  void onResponse(int Status, const std::string &Body);

  /// Forgets the session (the connection was replaced).
  void reset() { Token.clear(); }

private:
  asyncg::sim::Random Rng;
  asyncg::acmeair::WorkloadMix Mix;
  std::string User;
  std::string Token;
};

struct WireLoadConfig {
  int Port = 0;
  /// Keep-alive connections (at most the host's hardware threads).
  int Connections = 4;
  double RatePerSec = 1000;
  /// Length of the arrival schedule.
  double Seconds = 1;
  /// Requests due in this leading window count as attempted but are left
  /// out of the latency histogram.
  double WarmupSeconds = 0.1;
  uint64_t Seed = 1;
  int Customers = 100;
  asyncg::acmeair::WorkloadMix Mix;
  /// A request with no response after this long counts as failed; its
  /// connection is replaced.
  double TimeoutMs = 2000;
};

struct WireLoadResult {
  /// Response time measured from each request's due time (ns).
  LogHistogram Latency;
  /// How late the generator itself sent: send time minus the later of the
  /// due time and the moment a connection was free (ns).
  LogHistogram Late;
  uint64_t Due = 0;
  uint64_t Sent = 0;
  uint64_t Completed = 0;
  uint64_t Non200 = 0;
  uint64_t Timeouts = 0;
  uint64_t DroppedConns = 0;
  uint64_t ConnectFailures = 0;
  uint64_t BadResponses = 0;
  /// Requests still due-but-unsent or unanswered when the run gave up.
  uint64_t Abandoned = 0;
  /// Wall time from the first due time until the last response.
  double WallSeconds = 0;
  /// Client-thread CPU over the same window.
  double CpuSeconds = 0;
  /// Monotonic time at which every connection was established.
  uint64_t ConnectedAtNs = 0;

  uint64_t failed() const {
    return Non200 + Timeouts + DroppedConns + ConnectFailures + BadResponses +
           Abandoned;
  }
};

/// Runs the schedule against 127.0.0.1:Port. Returns false when no
/// connection could be established.
bool runOpenLoop(const WireLoadConfig &Cfg, WireLoadResult &Out);

/// Pops one complete HTTP/1.1 response (Content-Length framed) off the
/// front of \p In. Returns false while \p In holds less than a response.
bool popHttpResponse(std::string &In, int &Status, std::string &Body);

} // namespace perfbench

#endif // PERFBENCH_WIRELOAD_H
