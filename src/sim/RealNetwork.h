//===- RealNetwork.h - Real TCP sockets behind the sim interface -*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The connection state machine every real-traffic network backend shares:
/// 127.0.0.1 listeners and non-blocking TCP sockets behind the same
/// listen/connect/Socket surface the simulated network exposes. Each socket
/// runs a WireCodec translating between the byte stream and the discrete
/// protocol messages the node layer exchanges, so node::Net, node::Http,
/// the instrumentation, and the Async Graph cannot tell the backends apart.
///
/// RealSocket owns everything about a connection except how its I/O is
/// armed: out-buffering and the optimistic inline ::send loop, end() /
/// destroy() / shutdown-after-flush, per-message delivery, EOF and
/// half-close, RST teardown and async close delivery, the fault-injection
/// decision points with their hardened retry paths, and the syscall
/// accounting. A backend supplies four primitives (rearm, recvInline,
/// startConnect, releaseIo); the readiness backend (EpollNetwork) maps them
/// onto an epoll interest mask, the completion backend (UringNetwork) onto
/// staged SQEs. RealNetwork likewise owns the listener table and socket
/// registry, leaving the backend only how a listener is armed.
///
/// Listeners bind with SO_REUSEADDR + SO_REUSEPORT: in cluster mode every
/// shard binds the same port and the Linux kernel balances accepts across
/// the loops — the real mechanism the simulated ClusterKernel's
/// round-robin shardForClient models.
///
/// Event mapping (chosen to match what the simulated network delivers on
/// the same logical workload):
///  - arriving bytes -> completed codec messages -> data events, each its
///    own zero-delay kernel completion (the sim delivers one message per
///    latency-delayed op, so the tick structure stays identical);
///  - peer FIN (clean close) -> end event, then the fd is quietly released
///    once our own end() has flushed (the sim network fires no close event
///    for an end()ed pair either);
///  - peer RST / write error -> close event (sim: destroy() on one side
///    delivers close to both);
///  - destroy() -> RST to the peer (SO_LINGER 0), close event locally.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_SIM_REALNETWORK_H
#define ASYNCG_SIM_REALNETWORK_H

#ifdef __linux__

#include "sim/Fault.h"
#include "sim/Network.h"
#include "sim/RealKernel.h"
#include "sim/WireCodec.h"

#include <netinet/in.h>
#include <sys/types.h>

#include <map>
#include <memory>
#include <vector>

namespace asyncg {
namespace sim {

/// Inline EINTR retries before a socket or listener waits for its next
/// readiness or completion instead: a signal storm must not wedge the loop.
constexpr int MaxEintrSpins = 64;

/// A real non-blocking TCP socket endpoint. Created by a RealNetwork on
/// accept/connect; never constructed directly. Backends call
/// teardown(false) from their destructor (it needs their releaseIo()).
class RealSocket : public Socket {
public:
  bool write(const std::string &Msg) override;
  void end() override;
  void destroy() override;

protected:
  RealSocket(RealKernel &RK, int Fd, std::unique_ptr<WireCodec> Codec);

  /// \name Backend primitives
  /// @{

  /// Re-derives the backend's arming from the socket state: a receive
  /// armed until EOF, and the out-buffer remainder waiting for the fd to
  /// become writable while bytes are pending. Idempotent; a no-op once the
  /// fd is released.
  virtual void rearm() = 0;

  /// One inline receive into \p Buf: bytes read, 0 on peer FIN, -errno on
  /// failure. A completion backend has no bytes inline — it returns
  /// -EAGAIN, rearm() stages the receive, and the completion comes back
  /// through onReceived().
  virtual ssize_t recvInline(char *Buf, size_t Len) = 0;

  /// Starts connecting to \p Addr; \p Done(Established) runs once, in the
  /// loop's I/O phase, and holds the strong pin on the socket until then.
  /// Returns false when the connect could not be initiated.
  virtual bool startConnect(const sockaddr_in &Addr,
                            std::function<void(bool)> Done) = 0;

  /// Drops every registration and in-flight operation on the fd before it
  /// is closed: their handlers must never fire afterwards.
  virtual void releaseIo() = 0;
  /// @}

  /// \name The state machine, driven by the backend
  /// @{

  /// Receives until the backend has to wait, consulting the fault
  /// injector before every attempt.
  void receive();
  /// Handles one receive result (bytes in \p Data, 0 = FIN, -errno).
  /// Returns true when the caller should receive again right away.
  bool onReceived(ssize_t N, const char *Data, int &EintrSpins);
  /// Sends the out buffer inline until it drains or the backend has to
  /// wait. Returns false when the connection failed (a close event was
  /// scheduled).
  bool flushOut();
  /// Releases the fd (backend I/O, then close). \p Reset sends RST.
  void teardown(bool Reset);
  /// Tears down and delivers a close event (unless already destroyed).
  void failConnection();
  /// @}

  std::shared_ptr<RealSocket> self() {
    return std::static_pointer_cast<RealSocket>(shared_from_this());
  }

  /// Bytes accepted by write() but not yet confirmed sent.
  size_t pendingOutBytes() const { return Out.size() - OutOff + InFlight; }

  RealKernel &RK;
  int Fd = -1;
  /// Bytes not yet sent; Out[OutOff..] is the unsent remainder.
  std::string Out;
  size_t OutOff = 0;
  /// Bytes handed to an asynchronous backend send and not yet confirmed.
  /// While nonzero, new writes accumulate in Out (one send in flight
  /// preserves ordering) and flushOut() leaves them for the completion.
  size_t InFlight = 0;
  bool SawEof = false;
  /// Recovery counters shared with the owning network.
  std::shared_ptr<NetRecoveryStats> RS;

private:
  friend class RealNetwork;

  /// Receive-side fault decision point: the injected errno, or 0.
  int injectRecvFault();
  /// Schedules a close event for the next I/O phase (sim parity: the tick
  /// that noticed the failure finishes first).
  void scheduleClose();
  /// Shutdown once the out buffer drains after end().
  void shutdownWrite();

  std::unique_ptr<WireCodec> Codec;
  bool EndAfterFlush = false;
  /// Optional fault injection (owned by the runtime; outlives the socket).
  FaultInjector *Faults = nullptr;
  /// Consecutive ENOBUFS results; the bounded-backoff retry gives up
  /// (draining the connection) when the streak exceeds the cap.
  uint32_t EnobufsStreak = 0;
  /// True while a backoff-timer flush retry is scheduled.
  bool FlushRetryArmed = false;
};

/// The network of real sockets. One instance per runtime, owned by it;
/// must be destroyed before its kernel (Runtime's member order guarantees
/// this).
class RealNetwork : public Network {
public:
  bool listenWithBacklog(int Port, AcceptHandler OnAccept,
                         int Backlog) override;
  void closePort(int Port) override;
  bool isListening(int Port) const override;
  bool connect(int Port, ConnectHandler OnConnect) override;

  /// Accepted-connection count (for stats/tests).
  uint64_t acceptedCount() const { return Accepted; }

  /// Installs a fault injector consulted at the socket syscall wrap points
  /// (and inherited by every socket created afterwards). Pass nullptr to
  /// disable. The injector must outlive the network.
  void setFaultInjector(FaultInjector *Inj) { Faults = Inj; }

  /// Hardened-path counters (EINTR retries, accept pauses, backoffs, and
  /// the faults injected into them).
  const NetRecoveryStats &recoveryStats() const { return *RS; }

protected:
  /// \p DefaultBacklog applies to listen() calls without an explicit
  /// backlog. LatencyUs is carried only for latency() callers (real
  /// latency is whatever the wire provides).
  RealNetwork(RealKernel &RK, SimTime LatencyUs, WireFormat Wire,
              int DefaultBacklog);

  struct Listener {
    int Fd = -1;
    AcceptHandler OnAccept;
    /// The backend's handle on its armed accept, if it needs one.
    uint64_t IoToken = 0;
  };

  /// \name Backend primitives
  /// @{
  virtual std::shared_ptr<RealSocket>
  newSocket(int Fd, std::unique_ptr<WireCodec> Codec) = 0;
  /// Starts delivering connections on \p L (to accepted(Port, Fd)).
  virtual bool armListener(int Port, Listener &L) = 0;
  /// Stops delivering connections on \p L; the fd is closed afterwards.
  virtual void disarmListener(Listener &L) = 0;
  /// @}

  /// Hands a freshly accepted fd to \p Port's accept handler (closing it
  /// when the port was closed while the connection was in flight).
  void accepted(int Port, int Fd);

  /// Quiet teardown, no close events: the runtime is being destroyed, and
  /// delivering events now would run node-layer callbacks into it.
  /// Backends call this from their destructor (it needs their primitives).
  void closeAll();

  RealKernel &RK;
  std::map<int, Listener> Ports;
  FaultInjector *Faults = nullptr;
  std::shared_ptr<NetRecoveryStats> RS = std::make_shared<NetRecoveryStats>();

private:
  std::shared_ptr<RealSocket> adopt(int Fd, bool ServerRole);

  WireFormat Wire;
  int DefaultBacklog;
  std::vector<std::weak_ptr<RealSocket>> Sockets;
  uint64_t Accepted = 0;
};

} // namespace sim
} // namespace asyncg

#endif // __linux__
#endif // ASYNCG_SIM_REALNETWORK_H
