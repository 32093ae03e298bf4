//===- UringNetwork.cpp - Real TCP sockets over io_uring ----------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#ifdef __linux__

#include "sim/UringNetwork.h"

#include <cerrno>

using namespace asyncg;
using namespace asyncg::sim;

namespace {

/// A socket whose I/O is staged on the ring: one recv and at most one send
/// in flight, each re-staged from its completion handler.
class UringSocket final : public RealSocket {
public:
  UringSocket(UringKernel &UK, int Fd, std::unique_ptr<WireCodec> Codec)
      : RealSocket(UK, Fd, std::move(Codec)), UK(UK) {}
  ~UringSocket() override { teardown(/*Reset=*/false); }

private:
  void rearm() override {
    if (Fd < 0 || ConnectToken != 0)
      return;
    if (!SawEof && RecvToken == 0) {
      std::weak_ptr<RealSocket> Self = self();
      RecvToken = UK.stageRecv(Fd, [Self](int Res, const char *Data) {
        if (auto S = Self.lock())
          static_cast<UringSocket &>(*S).onRecv(Res, Data);
      });
    }
    if (InFlight == 0 && OutOff < Out.size()) {
      // Hand the unsent remainder to the kernel-owned entry; writes made
      // meanwhile accumulate in a fresh Out behind it.
      InFlight = Out.size() - OutOff;
      stageSend(std::move(Out), OutOff);
      Out.clear();
      OutOff = 0;
    }
  }

  ssize_t recvInline(char *, size_t) override { return -EAGAIN; }

  bool startConnect(const sockaddr_in &Addr,
                    std::function<void(bool)> Done) override {
    ConnectToken = UK.stageConnect(Fd, Addr, [this, Done = std::move(Done)](int Res) {
      ConnectToken = 0;
      Done(Res == 0);
    });
    return true;
  }

  void releaseIo() override {
    for (uint64_t *Token : {&RecvToken, &SendToken, &ConnectToken}) {
      if (*Token != 0)
        UK.cancelIo(*Token);
      *Token = 0;
    }
  }

  void onRecv(int Res, const char *Data) {
    RecvToken = 0;
    if (Fd < 0)
      return;
    int EintrSpins = 0;
    if (onReceived(Res, Data, EintrSpins))
      receive();
  }

  void stageSend(std::string Chunk, size_t Off) {
    ChunkOff = Off;
    std::weak_ptr<RealSocket> Self = self();
    SendToken = UK.stageSend(Fd, std::move(Chunk), Off,
                             [Self](int Res, std::string C) {
                               if (auto S = Self.lock())
                                 static_cast<UringSocket &>(*S).onSend(
                                     Res, std::move(C));
                             });
  }

  void onSend(int Res, std::string Chunk) {
    SendToken = 0;
    if (Fd < 0)
      return;
    if (Res == -EINTR || Res == -EAGAIN) {
      // Ownership came back: retry the same chunk from the same offset.
      stageSend(std::move(Chunk), ChunkOff);
      return;
    }
    if (Res <= 0) {
      ++RS->DrainedConns;
      failConnection();
      return;
    }
    ChunkOff += static_cast<size_t>(Res);
    InFlight = Chunk.size() - ChunkOff;
    if (InFlight != 0) {
      // Partial send: re-stage the remainder by offset, no copy.
      stageSend(std::move(Chunk), ChunkOff);
      return;
    }
    flushOut(); // whatever accumulated behind the chunk
  }

  UringKernel &UK;
  uint64_t RecvToken = 0;
  uint64_t SendToken = 0;
  uint64_t ConnectToken = 0;
  /// Send progress within the chunk the kernel entry owns.
  size_t ChunkOff = 0;
};

} // namespace

UringNetwork::UringNetwork(UringKernel &UK, SimTime LatencyUs, WireFormat Wire,
                           int DefaultBacklog)
    : RealNetwork(UK, LatencyUs, Wire, DefaultBacklog), UK(UK) {}

UringNetwork::~UringNetwork() { closeAll(); }

std::shared_ptr<RealSocket>
UringNetwork::newSocket(int Fd, std::unique_ptr<WireCodec> Codec) {
  return std::make_shared<UringSocket>(UK, Fd, std::move(Codec));
}

bool UringNetwork::armListener(int Port, Listener &L) {
  // One multishot accept SQE serves the listener's whole lifetime (until
  // cancelled); each incoming connection is one CQE, no accept4 loop.
  L.IoToken =
      UK.stageAccept(L.Fd, [this, Port](int NewFd) { accepted(Port, NewFd); });
  return true;
}

void UringNetwork::disarmListener(Listener &L) { UK.cancelIo(L.IoToken); }

#endif // __linux__
