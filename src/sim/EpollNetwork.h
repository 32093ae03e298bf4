//===- EpollNetwork.h - Real TCP sockets over epoll readiness ---*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readiness network backend: the shared RealNetwork state machine
/// with its I/O armed through an EpollKernel. A socket's only backend state
/// is its level-triggered interest mask — EPOLLIN until EOF, EPOLLOUT while
/// the out buffer has bytes — and readiness drives the shared inline
/// receive/send loops. Listeners are watched for EPOLLIN and drained with
/// accept4 until EAGAIN; EMFILE/ENFILE pauses the listener instead of
/// spinning the loop on a full fd table.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_SIM_EPOLLNETWORK_H
#define ASYNCG_SIM_EPOLLNETWORK_H

#ifdef __linux__

#include "sim/EpollKernel.h"
#include "sim/RealNetwork.h"

namespace asyncg {
namespace sim {

/// The epoll-backed network. One instance per runtime, owned by it.
class EpollNetwork final : public RealNetwork {
public:
  EpollNetwork(EpollKernel &EK, SimTime LatencyUs, WireFormat Wire,
               int DefaultBacklog = 128);
  ~EpollNetwork() override;

private:
  std::shared_ptr<RealSocket>
  newSocket(int Fd, std::unique_ptr<WireCodec> Codec) override;
  bool armListener(int Port, Listener &L) override;
  void disarmListener(Listener &L) override;

  /// Accepts until EAGAIN (one readiness may cover many queued peers).
  void acceptReady(int Port);
  /// EMFILE/ENFILE: stop accepting (unwatch the listen fd) and re-arm
  /// after a pause — the kernel keeps queueing connections in the backlog,
  /// and accepting again later succeeds once fds free up. Without the
  /// pause, a level-triggered listener spins the loop on a full fd table.
  void pauseAccept(int Port, int ListenFd);

  EpollKernel &EK;
};

} // namespace sim
} // namespace asyncg

#endif // __linux__
#endif // ASYNCG_SIM_EPOLLNETWORK_H
