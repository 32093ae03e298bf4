//===- Network.h - Simulated TCP sockets and listeners ----------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simulated TCP layer: listening ports, socket pairs, and message
/// delivery with configurable virtual latency through the kernel.
/// The node-layer net/http modules wrap these raw sockets in EventEmitter
/// objects; the workload driver connects from "outside" the JS world, the
/// way JMeter drives the AcmeAir server in the paper's evaluation.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_SIM_NETWORK_H
#define ASYNCG_SIM_NETWORK_H

#include "sim/Kernel.h"

#include <functional>
#include <map>
#include <memory>
#include <string>

namespace asyncg {
namespace sim {

class Network;

/// How protocol messages map onto real socket bytes (the epoll and io_uring
/// backends; the simulated network delivers messages directly and never
/// consults this).
enum class WireFormat {
  /// node::Http's REQ/DAT/END//RES messages become real HTTP/1.1
  /// requests/responses with Content-Length framing and keep-alive.
  Http1,
  /// 4-byte big-endian length prefix per message (binary-safe; for raw
  /// net.Socket protocols that are not HTTP).
  Framed,
};

/// One endpoint of a TCP connection. The base class is the simulated
/// implementation: data written here is delivered to the peer endpoint's
/// data handler after the network latency, each write() being one discrete
/// data event. RealSocket (RealNetwork.h), the one state machine behind
/// both the epoll and the io_uring backend, overrides the output methods to
/// move real bytes through a non-blocking fd while delivering the same
/// discrete messages upward through the protected deliver* helpers, so the
/// node layer cannot tell the backends apart.
class Socket : public std::enable_shared_from_this<Socket> {
public:
  using DataHandler = std::function<void(const std::string &)>;
  using EventHandler = std::function<void()>;

  virtual ~Socket();

  /// Installs the handler invoked when the peer sends data.
  void onData(DataHandler H) { Data = std::move(H); }
  /// Installs the handler invoked when the peer half-closes.
  void onEnd(EventHandler H) { End = std::move(H); }
  /// Installs the handler invoked when the connection is torn down.
  void onClose(EventHandler H) { Close = std::move(H); }

  /// Sends \p Bytes to the peer. Returns false after end()/destroy().
  virtual bool write(const std::string &Bytes);

  /// Half-closes: the peer sees an end event after the latency.
  virtual void end();

  /// Tears the connection down; both endpoints see a close event.
  virtual void destroy();

  /// Drops all installed handlers (breaks owner<->handler reference
  /// cycles once the owner saw the close event).
  void clearHandlers() {
    Data = nullptr;
    End = nullptr;
    Close = nullptr;
  }

  bool isEnded() const { return Ended; }
  bool isDestroyed() const { return Destroyed; }

protected:
  /// Local-side event delivery, shared by every backend. Handlers run in
  /// the caller's context — kernel completions for the sim backend, the
  /// loop's I/O phase for the real ones.
  void deliverData(const std::string &Bytes);
  void deliverEnd();
  void deliverClose();

  bool Ended = false;
  bool Destroyed = false;

private:
  friend class Network;

  Kernel *K = nullptr;
  SimTime Latency = 0;
  std::weak_ptr<Socket> Peer;
  DataHandler Data;
  EventHandler End;
  EventHandler Close;
};

/// The network: a listener table plus connection plumbing. The base class
/// is the simulated network (loopback socket pairs with virtual latency);
/// RealNetwork (shared by the epoll and io_uring backends) overrides the
/// virtual surface with real listening sockets.
class Network {
public:
  /// \p LatencyUs is the one-way delivery latency for connect/data/end.
  Network(Kernel &K, SimTime LatencyUs = 50) : K(K), LatencyUs(LatencyUs) {}
  virtual ~Network();

  using AcceptHandler = std::function<void(std::shared_ptr<Socket>)>;
  using ConnectHandler = std::function<void(std::shared_ptr<Socket>)>;

  /// Starts listening on \p Port. Returns false if the port is in use.
  bool listen(int Port, AcceptHandler OnAccept) {
    return listenWithBacklog(Port, std::move(OnAccept), /*Backlog=*/-1);
  }

  /// listen() with an explicit accept backlog; <= 0 means the network's
  /// configured default. Meaningful for real sockets — the simulated
  /// network accepts everything regardless.
  virtual bool listenWithBacklog(int Port, AcceptHandler OnAccept,
                                 int Backlog);

  /// Stops listening on \p Port.
  virtual void closePort(int Port);

  virtual bool isListening(int Port) const {
    return Listeners.count(Port) != 0;
  }

  /// Connects to \p Port. After the latency, the listener's accept handler
  /// receives the server endpoint and \p OnConnect receives the client
  /// endpoint. Returns false immediately if the connection can not be
  /// initiated (sim: nothing listens on the port). Real backends may only
  /// discover refusal asynchronously: the connect then "succeeds" and the
  /// socket delivers a close event without any data.
  virtual bool connect(int Port, ConnectHandler OnConnect);

  SimTime latency() const { return LatencyUs; }

private:
  Kernel &K;
  SimTime LatencyUs;
  std::map<int, AcceptHandler> Listeners;
};

} // namespace sim
} // namespace asyncg

#endif // ASYNCG_SIM_NETWORK_H
