//===- RealNetwork.cpp - Real TCP sockets behind the sim interface ------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#ifdef __linux__

#include "sim/RealNetwork.h"

#include <arpa/inet.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <vector>

using namespace asyncg;
using namespace asyncg::sim;

namespace {

/// Consecutive ENOBUFS results before the connection is drained.
constexpr uint32_t MaxEnobufsStreak = 10;

} // namespace

//===----------------------------------------------------------------------===//
// RealSocket
//===----------------------------------------------------------------------===//

RealSocket::RealSocket(RealKernel &RK, int Fd, std::unique_ptr<WireCodec> Codec)
    : RK(RK), Fd(Fd), Codec(std::move(Codec)) {}

bool RealSocket::write(const std::string &Msg) {
  if (Ended || Destroyed || Fd < 0)
    return false;
  Codec->encode(Msg, Out);
  return flushOut();
}

void RealSocket::end() {
  if (Ended || Destroyed || Fd < 0)
    return;
  Ended = true;
  if (pendingOutBytes() > 0)
    EndAfterFlush = true;
  else
    shutdownWrite();
}

void RealSocket::destroy() {
  if (Destroyed)
    return;
  Destroyed = true;
  teardown(/*Reset=*/true);
  // Deliver close asynchronously, like the sim's latency-delayed delivery:
  // the caller's tick finishes before the close callback is scheduled.
  scheduleClose();
}

void RealSocket::shutdownWrite() {
  ::shutdown(Fd, SHUT_WR);
  RK.noteSyscalls(1);
  if (SawEof)
    teardown(/*Reset=*/false);
}

int RealSocket::injectRecvFault() {
  if (!Faults)
    return 0;
  if (Faults->shouldInject(FaultKind::Reset)) {
    ++RS->ResetsInjected;
    return ECONNRESET;
  }
  if (Faults->shouldInject(FaultKind::Eintr))
    return EINTR;
  // Spurious not-ready: the socket waits for its next readiness (epoll is
  // level-triggered, so pending bytes are reported again) or completion.
  if (Faults->shouldInject(FaultKind::Eagain))
    return EAGAIN;
  return 0;
}

void RealSocket::receive() {
  char Buf[64 * 1024];
  int EintrSpins = 0;
  for (;;) {
    int Injected = injectRecvFault();
    ssize_t N = Injected ? -Injected : recvInline(Buf, sizeof(Buf));
    if (!onReceived(N, Buf, EintrSpins))
      return;
  }
}

bool RealSocket::onReceived(ssize_t N, const char *Data, int &EintrSpins) {
  if (N > 0) {
    std::vector<std::string> Msgs;
    if (!Codec->ingest(Data, static_cast<size_t>(N), Msgs)) {
      failConnection();
      return false;
    }
    // Deliver each message as its own kernel completion: the simulated
    // network delivers one message per latency-delayed op, so per-message
    // submits keep the tick structure (and with it detector behavior and
    // the Async Graph shape) identical across backends.
    std::weak_ptr<RealSocket> Self = self();
    for (std::string &M : Msgs)
      RK.submit(0, [Self, Msg = std::move(M)] {
        if (auto S = Self.lock())
          S->deliverData(Msg);
      });
    return true;
  }
  if (N == 0) {
    // Peer FIN. Deliver end once (after any queued data messages); our
    // outgoing direction stays open — the sim peer can still receive our
    // writes after it end()s — and the fd is released once our own end()
    // has flushed. No close event for this path (sim parity).
    if (!SawEof) {
      SawEof = true;
      std::weak_ptr<RealSocket> Self = self();
      RK.submit(0, [Self] {
        if (auto S = Self.lock())
          S->deliverEnd();
      });
    }
    if (Ended && pendingOutBytes() == 0)
      teardown(/*Reset=*/false);
    else
      rearm(); // EOF is final: stop receiving
    return false;
  }
  if (N == -EINTR) {
    // Interrupted before any bytes moved: retry immediately, bounded —
    // past the cap the pending bytes wait for the next readiness.
    ++RS->EintrRetries;
    if (++EintrSpins <= MaxEintrSpins)
      return true;
  } else if (N != -EAGAIN && N != -EWOULDBLOCK) {
    // ECONNRESET and friends: the sim analogue is the peer destroying the
    // pair — a close event.
    ++RS->DrainedConns;
    failConnection();
    return false;
  }
  rearm();
  return false;
}

bool RealSocket::flushOut() {
  int EintrSpins = 0;
  while (InFlight == 0 && OutOff < Out.size()) {
    size_t Want = Out.size() - OutOff;
    if (Faults && Want >= 2 && Faults->shouldInject(FaultKind::ShortWrite)) {
      // Clamp to a strict prefix: the loop naturally re-sends the rest,
      // which is exactly the path a short kernel write exercises.
      Want = Faults->shortenWrite(Want);
      ++RS->ShortWrites;
    }
    ssize_t N;
    if (Faults && Faults->shouldInject(FaultKind::Enobufs)) {
      N = -1;
      errno = ENOBUFS;
    } else if (Faults && Faults->shouldInject(FaultKind::Eintr)) {
      N = -1;
      errno = EINTR;
    } else {
      // Optimistic inline send on every backend: the common case needs no
      // readiness round-trip or ring entry, and bytes written before a
      // same-tick destroy() are actually on the wire — the simulated
      // network also delivers writes that precede a reset.
      N = ::send(Fd, Out.data() + OutOff, Want, MSG_NOSIGNAL);
      RK.noteSyscalls(1);
    }
    if (N > 0) {
      OutOff += static_cast<size_t>(N);
      EnobufsStreak = 0;
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      rearm();
      return true;
    }
    if (N < 0 && errno == EINTR) {
      ++RS->EintrRetries;
      if (++EintrSpins > MaxEintrSpins) {
        rearm(); // writability re-delivers; don't wedge the loop
        return true;
      }
      continue;
    }
    if (N < 0 && (errno == ENOBUFS || errno == ENOMEM)) {
      // Transient buffer exhaustion: keep the bytes queued and retry on an
      // exponential backoff timer. Bounded: a persistent streak drains the
      // connection.
      ++RS->EnobufsRetries;
      if (++EnobufsStreak > MaxEnobufsStreak) {
        ++RS->DrainedConns;
        failConnection();
        return false;
      }
      if (!FlushRetryArmed) {
        FlushRetryArmed = true;
        SimTime Backoff = SimTime(100)
                          << (EnobufsStreak < 6 ? EnobufsStreak : 6);
        std::weak_ptr<RealSocket> Self = self();
        RK.submit(Backoff, [Self] {
          if (auto S = Self.lock()) {
            S->FlushRetryArmed = false;
            if (S->Fd >= 0 && S->pendingOutBytes() > 0)
              S->flushOut();
          }
        });
      }
      rearm();
      return true;
    }
    ++RS->DrainedConns;
    failConnection();
    return false;
  }
  if (InFlight != 0)
    return true;
  Out.clear();
  OutOff = 0;
  rearm();
  if (EndAfterFlush) {
    EndAfterFlush = false;
    shutdownWrite();
  }
  return true;
}

void RealSocket::teardown(bool Reset) {
  if (Fd < 0)
    return;
  releaseIo();
  if (Reset) {
    // Abortive close: RST the peer, like sim destroy() closing both ends.
    linger L{1, 0};
    setsockopt(Fd, SOL_SOCKET, SO_LINGER, &L, sizeof(L));
    RK.noteSyscalls(1);
  }
  ::close(Fd);
  RK.noteSyscalls(1);
  Fd = -1;
  Out.clear();
  OutOff = 0;
  InFlight = 0;
  EndAfterFlush = false;
}

void RealSocket::failConnection() {
  bool WasDestroyed = Destroyed;
  teardown(/*Reset=*/false);
  if (!WasDestroyed)
    scheduleClose();
}

void RealSocket::scheduleClose() {
  std::weak_ptr<RealSocket> Self = self();
  RK.submit(0, [Self] {
    if (auto S = Self.lock())
      S->deliverClose();
  });
}

//===----------------------------------------------------------------------===//
// RealNetwork
//===----------------------------------------------------------------------===//

namespace {

int makeNonBlockingSocket() {
  return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

sockaddr_in loopbackAddr(int Port) {
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return Addr;
}

void setNoDelay(int Fd) {
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

} // namespace

RealNetwork::RealNetwork(RealKernel &RK, SimTime LatencyUs, WireFormat Wire,
                         int DefaultBacklog)
    : Network(RK, LatencyUs), RK(RK), Wire(Wire),
      DefaultBacklog(DefaultBacklog) {}

void RealNetwork::closeAll() {
  for (auto &[Port, L] : Ports) {
    (void)Port;
    disarmListener(L);
    ::close(L.Fd);
    RK.noteSyscalls(1);
  }
  Ports.clear();
  for (auto &WeakS : Sockets)
    if (auto S = WeakS.lock())
      S->teardown(/*Reset=*/true);
  Sockets.clear();
}

bool RealNetwork::listenWithBacklog(int Port, AcceptHandler OnAccept,
                                    int Backlog) {
  if (Ports.count(Port))
    return false;
  int Fd = makeNonBlockingSocket();
  if (Fd < 0)
    return false;
  int One = 1;
  setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  // SO_REUSEPORT: cluster shards all bind this port; the Linux kernel
  // accept-balances across the listening fds (one per loop).
  setsockopt(Fd, SOL_SOCKET, SO_REUSEPORT, &One, sizeof(One));
  sockaddr_in Addr = loopbackAddr(Port);
  RK.noteSyscalls(5); // socket + 2x setsockopt + bind + listen
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, Backlog > 0 ? Backlog : DefaultBacklog) != 0) {
    ::close(Fd);
    return false;
  }
  Listener &L = Ports[Port];
  L.Fd = Fd;
  L.OnAccept = std::move(OnAccept);
  if (!armListener(Port, L)) {
    ::close(Fd);
    Ports.erase(Port);
    return false;
  }
  return true;
}

void RealNetwork::accepted(int Port, int Fd) {
  auto It = Ports.find(Port);
  if (It == Ports.end()) {
    // The completion raced a closePort: the connection has no owner.
    ::close(Fd);
    RK.noteSyscalls(1);
    return;
  }
  setNoDelay(Fd);
  RK.noteSyscalls(1);
  ++Accepted;
  auto Sock = adopt(Fd, /*ServerRole=*/true);
  Sock->rearm();
  // Copy: the handler may close the port, destroying the listener entry.
  AcceptHandler OnAccept = It->second.OnAccept;
  if (OnAccept)
    OnAccept(Sock);
}

std::shared_ptr<RealSocket> RealNetwork::adopt(int Fd, bool ServerRole) {
  std::shared_ptr<RealSocket> Sock =
      newSocket(Fd, makeWireCodec(Wire, ServerRole));
  Sock->Faults = Faults;
  Sock->RS = RS;
  // Compact expired entries so long-serving processes stay bounded.
  // (erase_if never self-move-assigns; a self-moved weak_ptr is emptied,
  // which would hide a live socket from closeAll.)
  std::erase_if(Sockets, [](const std::weak_ptr<RealSocket> &W) {
    return W.expired();
  });
  Sockets.push_back(Sock);
  return Sock;
}

void RealNetwork::closePort(int Port) {
  auto It = Ports.find(Port);
  if (It == Ports.end())
    return;
  disarmListener(It->second);
  ::close(It->second.Fd);
  RK.noteSyscalls(1);
  Ports.erase(It);
}

bool RealNetwork::isListening(int Port) const {
  return Ports.count(Port) != 0;
}

bool RealNetwork::connect(int Port, ConnectHandler OnConnect) {
  int Fd = makeNonBlockingSocket();
  if (Fd < 0)
    return false;
  setNoDelay(Fd);
  RK.noteSyscalls(2); // socket + setsockopt
  auto Sock = adopt(Fd, /*ServerRole=*/false);
  // The completion pins the socket strongly: nothing else holds it until
  // OnConnect hands it to the caller. Teardown drops the pin with the
  // backend's registration.
  auto Done = [Sock, OnConnect = std::move(OnConnect)](bool Established) {
    if (Sock->Fd < 0)
      return;
    if (!Established) {
      // Refused: the op vanishes and the socket delivers close — real
      // backends cannot report refusal synchronously like the sim does.
      Sock->failConnection();
      return;
    }
    Sock->rearm();
    if (OnConnect)
      OnConnect(Sock);
  };
  if (!Sock->startConnect(loopbackAddr(Port), std::move(Done))) {
    Sock->teardown(/*Reset=*/false);
    return false;
  }
  return true;
}

#endif // __linux__
