//===- EpollNetwork.cpp - Real TCP sockets over epoll readiness ---------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#ifdef __linux__

#include "sim/EpollNetwork.h"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <cerrno>

using namespace asyncg;
using namespace asyncg::sim;

namespace {

/// How long an EMFILE/ENFILE accept failure pauses the listener.
constexpr SimTime AcceptPauseUs = 5000;

/// A socket whose I/O is armed through a level-triggered epoll interest
/// mask; readiness runs the shared inline receive/send loops.
class EpollSocket final : public RealSocket {
public:
  EpollSocket(EpollKernel &EK, int Fd, std::unique_ptr<WireCodec> Codec)
      : RealSocket(EK, Fd, std::move(Codec)), EK(EK) {}
  ~EpollSocket() override { teardown(/*Reset=*/false); }

private:
  /// EPOLLIN until EOF, EPOLLOUT while the out buffer has bytes. A mask of
  /// zero unregisters the fd entirely — a FIN-ed fd is level-triggered
  /// readable forever, so keeping EPOLLIN after EOF would spin the loop.
  void rearm() override {
    if (Fd < 0)
      return;
    uint32_t Want =
        (SawEof ? 0u : static_cast<uint32_t>(EPOLLIN)) |
        (pendingOutBytes() ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    if (Want == Interest)
      return;
    if (Want == 0) {
      EK.unwatchFd(Fd);
    } else if (Interest == 0) {
      std::weak_ptr<RealSocket> Self = self();
      if (!EK.watchFd(Fd, Want, [Self](uint32_t Events) {
            if (auto S = Self.lock())
              static_cast<EpollSocket &>(*S).onEvents(Events);
          }))
        return;
    } else {
      EK.modifyFd(Fd, Want);
    }
    Interest = Want;
  }

  ssize_t recvInline(char *Buf, size_t Len) override {
    ssize_t N = ::recv(Fd, Buf, Len, 0);
    RK.noteSyscalls(1);
    return N < 0 ? -errno : N;
  }

  /// Completion is level-triggered writability, observed through a
  /// connect-only watch that holds \p Done (and its strong pin) until the
  /// socket switches to its normal data-driven interest.
  bool startConnect(const sockaddr_in &Addr,
                    std::function<void(bool)> Done) override {
    int Rc = ::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                       sizeof(Addr));
    RK.noteSyscalls(1);
    if (Rc != 0 && errno != EINPROGRESS)
      return false;
    return EK.watchFd(Fd, EPOLLOUT, [this, Done = std::move(Done)](uint32_t Events) {
      int Err = 0;
      socklen_t Len = sizeof(Err);
      getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Err, &Len);
      RK.noteSyscalls(1);
      // Safe while executing: the kernel's dispatch shared_ptr keeps this
      // closure's watch alive for the duration of the call.
      EK.unwatchFd(Fd);
      Done(Err == 0 && !(Events & (EPOLLERR | EPOLLHUP)));
    });
  }

  void releaseIo() override {
    EK.unwatchFd(Fd);
    Interest = 0;
  }

  void onEvents(uint32_t Events) {
    if (Fd < 0)
      return;
    if ((Events & EPOLLOUT) && !flushOut())
      return;
    if (Events & (EPOLLIN | EPOLLHUP | EPOLLERR))
      receive();
  }

  EpollKernel &EK;
  /// Currently registered epoll event mask; 0 when the fd is unwatched.
  uint32_t Interest = 0;
};

} // namespace

EpollNetwork::EpollNetwork(EpollKernel &EK, SimTime LatencyUs, WireFormat Wire,
                           int DefaultBacklog)
    : RealNetwork(EK, LatencyUs, Wire, DefaultBacklog), EK(EK) {}

EpollNetwork::~EpollNetwork() { closeAll(); }

std::shared_ptr<RealSocket>
EpollNetwork::newSocket(int Fd, std::unique_ptr<WireCodec> Codec) {
  return std::make_shared<EpollSocket>(EK, Fd, std::move(Codec));
}

bool EpollNetwork::armListener(int Port, Listener &L) {
  return EK.watchFd(L.Fd, EPOLLIN, [this, Port](uint32_t) {
    acceptReady(Port);
  });
}

void EpollNetwork::disarmListener(Listener &L) { EK.unwatchFd(L.Fd); }

void EpollNetwork::acceptReady(int Port) {
  int EintrSpins = 0;
  for (;;) {
    // Looked up per connection: an accept handler may close the port.
    auto It = Ports.find(Port);
    if (It == Ports.end())
      return;
    int ListenFd = It->second.Fd;
    int Fd;
    if (Faults && Faults->shouldInject(FaultKind::Emfile)) {
      Fd = -1;
      errno = EMFILE;
    } else {
      Fd = ::accept4(ListenFd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      RK.noteSyscalls(1);
    }
    if (Fd >= 0) {
      accepted(Port, Fd);
      continue;
    }
    if (errno == EINTR) {
      // Retry: connections are queued in the backlog; returning would
      // defer them a full sweep.
      ++RS->EintrRetries;
      if (++EintrSpins > MaxEintrSpins)
        return;
      continue;
    }
    if (errno == ECONNABORTED)
      continue; // peer gave up while queued; the next one may be fine
    if (errno == EMFILE || errno == ENFILE)
      pauseAccept(Port, ListenFd);
    return; // EAGAIN: drained
  }
}

void EpollNetwork::pauseAccept(int Port, int ListenFd) {
  ++RS->AcceptPauses;
  EK.unwatchFd(ListenFd);
  EK.submit(AcceptPauseUs, [this, Port, ListenFd] {
    // Re-arm only the listener that was paused: the port may have been
    // closed (or re-opened on a new fd) while the pause timer ran.
    auto It = Ports.find(Port);
    if (It != Ports.end() && It->second.Fd == ListenFd)
      armListener(Port, It->second);
  });
}

#endif // __linux__
