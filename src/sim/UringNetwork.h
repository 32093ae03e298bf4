//===- UringNetwork.h - Real TCP sockets over io_uring ----------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The completion network backend: the shared RealNetwork state machine
/// with its I/O armed as staged SQEs on a UringKernel instead of readiness
/// watches. Listeners hold one multishot-accept SQE that produces a
/// completion per connection; sockets keep at most one recv and one send
/// in flight, re-staged from their completion handlers. The send SQE only
/// carries what the shared inline ::send could not move: the remainder is
/// handed to the kernel-owned entry (buffer-stable across cancellation)
/// and comes back through the completion, re-staged by offset when
/// partial.
///
/// Teardown: sockets cancel their in-flight operations through
/// UringKernel::cancelIo, which guarantees the handlers never fire while
/// the kernel-owned entry (and any buffer io_uring may still write) lives
/// on until the CQE arrives.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_SIM_URINGNETWORK_H
#define ASYNCG_SIM_URINGNETWORK_H

#ifdef __linux__

#include "sim/RealNetwork.h"
#include "sim/UringKernel.h"

namespace asyncg {
namespace sim {

/// The io_uring-backed network. One instance per runtime, owned by it;
/// must be destroyed before its UringKernel so staged cancellations land
/// in a live ring.
class UringNetwork final : public RealNetwork {
public:
  UringNetwork(UringKernel &UK, SimTime LatencyUs, WireFormat Wire,
               int DefaultBacklog = 128);
  ~UringNetwork() override;

private:
  std::shared_ptr<RealSocket>
  newSocket(int Fd, std::unique_ptr<WireCodec> Codec) override;
  bool armListener(int Port, Listener &L) override;
  void disarmListener(Listener &L) override;

  UringKernel &UK;
};

} // namespace sim
} // namespace asyncg

#endif // __linux__
#endif // ASYNCG_SIM_URINGNETWORK_H
