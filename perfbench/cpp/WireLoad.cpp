//===- WireLoad.cpp - open-loop HTTP load generator ---------------------------===//
//
// Part of the AsyncG benchmark. MIT License.
//
//===----------------------------------------------------------------------===//

#include "WireLoad.h"

#include "apps/acmeair/App.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;
using asyncg::acmeair::AcmeAirApp;

namespace {

std::string httpRequest(const char *Method, const std::string &Path,
                        const std::string &Body) {
  std::string R;
  R.reserve(128 + Path.size() + Body.size());
  R += Method;
  R += ' ';
  R += Path;
  R += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: ";
  R += std::to_string(Body.size());
  R += "\r\nConnection: keep-alive\r\n\r\n";
  R += Body;
  return R;
}

int connectLoopback(int Port) {
  for (int Attempt = 0; Attempt != 50; ++Attempt) {
    int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return -1;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0) {
      ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL, 0) | O_NONBLOCK);
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      return Fd;
    }
    ::close(Fd);
    ::usleep(10000);
  }
  return -1;
}

struct Conn {
  explicit Conn(SessionStream Session) : Session(std::move(Session)) {}

  int Fd = -1;
  SessionStream Session;
  std::string Out;
  size_t OutOff = 0;
  std::string In;
  bool InFlight = false;
  uint64_t DueNs = 0;
  uint64_t SentNs = 0;
  /// When the connection last became free to send.
  uint64_t FreeSinceNs = 0;
  bool Measured = false;
};

} // namespace

SessionStream::SessionStream(uint64_t Seed, unsigned Conn, int Customers,
                             const asyncg::acmeair::WorkloadMix &Mix)
    : Rng(Seed * 7919 + Conn), Mix(Mix) {
  User = "uid" + std::to_string(Rng.nextInt(
                     0, static_cast<uint64_t>(std::max(Customers, 1) - 1)));
}

std::string SessionStream::next() {
  if (Token.empty())
    return httpRequest("POST", "/rest/api/login",
                       "user=" + User + "&password=password");
  double Weights[5] = {Mix.QueryFlights, Mix.ViewProfile, Mix.BookFlight,
                       Mix.UpdateProfile, Mix.Login};
  const auto &Air = AcmeAirApp::airports();
  switch (Rng.pickWeighted(Weights)) {
  case 0: {
    size_t A = Rng.nextInt(0, Air.size() - 1);
    size_t B = Rng.nextInt(0, Air.size() - 2);
    if (B >= A)
      ++B;
    return httpRequest(
        "GET", "/rest/api/queryflights?from=" + Air[A] + "&to=" + Air[B], "");
  }
  case 1:
    return httpRequest("GET", "/rest/api/customer/byid?token=" + Token, "");
  case 2: {
    size_t A = Rng.nextInt(0, Air.size() - 1);
    size_t B = (A + 1) % Air.size();
    return httpRequest("POST", "/rest/api/bookflights",
                       "token=" + Token + "&flight=" + Air[A] + "-" + Air[B] +
                           "|f0");
  }
  case 3:
    return httpRequest("POST", "/rest/api/customer/update",
                       "token=" + Token + "&name=Customer" +
                           std::to_string(Rng.nextInt(0, 999)));
  default:
    return httpRequest("POST", "/rest/api/login",
                       "user=" + User + "&password=password");
  }
}

void SessionStream::onResponse(int Status, const std::string &Body) {
  if (Status == 200 && Body.compare(0, 9, "OK token=") == 0)
    Token = Body.substr(9);
}

bool perfbench::popHttpResponse(std::string &In, int &Status,
                                std::string &Body) {
  size_t HdrEnd = In.find("\r\n\r\n");
  if (HdrEnd == std::string::npos)
    return false;
  size_t Len = 0;
  for (size_t P = In.find("\r\n"); P < HdrEnd; P = In.find("\r\n", P + 2)) {
    static const char Key[] = "content-length:";
    size_t K = 0;
    while (K + 1 < sizeof(Key) && P + 2 + K < HdrEnd &&
           std::tolower(static_cast<unsigned char>(In[P + 2 + K])) == Key[K])
      ++K;
    if (K + 1 == sizeof(Key)) {
      Len = std::strtoul(In.c_str() + P + 2 + K, nullptr, 10);
      break;
    }
  }
  size_t Total = HdrEnd + 4 + Len;
  if (In.size() < Total)
    return false;
  Status = In.compare(0, 9, "HTTP/1.1 ") == 0 ? std::atoi(In.c_str() + 9) : 0;
  Body.assign(In, HdrEnd + 4, Len);
  In.erase(0, Total);
  return true;
}

bool perfbench::runOpenLoop(const WireLoadConfig &Cfg, WireLoadResult &Out) {
  Out = WireLoadResult();
  // Wake up from ppoll on time: the default 50us timer slack would show up
  // as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  std::vector<Conn> Conns;
  for (int I = 0; I != std::max(Cfg.Connections, 1); ++I)
    Conns.emplace_back(SessionStream(Cfg.Seed, static_cast<unsigned>(I),
                                     Cfg.Customers, Cfg.Mix));
  size_t Alive = 0;
  for (Conn &C : Conns) {
    C.Fd = connectLoopback(Cfg.Port);
    if (C.Fd < 0)
      ++Out.ConnectFailures;
    else
      ++Alive;
  }
  Out.ConnectedAtNs = nowNs();
  if (Alive == 0)
    return false;

  ArrivalSchedule Sched(Cfg.Seed, Cfg.RatePerSec);
  const uint64_t Start = nowNs();
  const uint64_t End = Start + static_cast<uint64_t>(Cfg.Seconds * 1e9);
  const uint64_t WarmEnd = Start + static_cast<uint64_t>(Cfg.WarmupSeconds * 1e9);
  const uint64_t TimeoutNs = static_cast<uint64_t>(Cfg.TimeoutMs * 1e6);
  const uint64_t GiveUp = End + TimeoutNs;
  const uint64_t Cpu0 = threadCpuNs();
  for (Conn &C : Conns)
    C.FreeSinceNs = Start;

  std::deque<uint64_t> Backlog;
  uint64_t NextDue = Start + Sched.next();
  std::vector<pollfd> Pfds;
  std::vector<size_t> PfdConn;
  char Buf[65536];
  uint64_t LastEvent = Start;

  auto Replace = [&](Conn &C, uint64_t Now) {
    ::close(C.Fd);
    C.Fd = connectLoopback(Cfg.Port);
    C.In.clear();
    C.Out.clear();
    C.OutOff = 0;
    C.InFlight = false;
    C.Session.reset();
    C.FreeSinceNs = Now;
    if (C.Fd < 0) {
      ++Out.ConnectFailures;
      --Alive;
    }
  };

  for (;;) {
    uint64_t Now = nowNs();
    while (NextDue <= Now && NextDue < End) {
      Backlog.push_back(NextDue);
      ++Out.Due;
      NextDue = Start + Sched.next();
    }

    // Hand due requests to idle connections, oldest first.
    for (Conn &C : Conns) {
      if (Backlog.empty())
        break;
      if (C.Fd < 0 || C.InFlight)
        continue;
      uint64_t Due = Backlog.front();
      Backlog.pop_front();
      C.Out += C.Session.next();
      C.InFlight = true;
      C.DueNs = Due;
      C.SentNs = Now;
      C.Measured = Due >= WarmEnd;
      uint64_t Ready = std::max(Due, C.FreeSinceNs);
      Out.Late.add(Now > Ready ? Now - Ready : 0);
      ++Out.Sent;
      while (C.OutOff < C.Out.size()) {
        ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOff,
                           C.Out.size() - C.OutOff, MSG_NOSIGNAL);
        if (N > 0) {
          C.OutOff += static_cast<size_t>(N);
          continue;
        }
        if (N < 0 && errno == EINTR)
          continue;
        break; // EAGAIN: finished under POLLOUT; errors surface on read
      }
      if (C.OutOff == C.Out.size()) {
        C.Out.clear();
        C.OutOff = 0;
      }
    }

    bool AnyInFlight = false;
    for (Conn &C : Conns) {
      if (C.Fd < 0 || !C.InFlight)
        continue;
      if (Now - C.SentNs > TimeoutNs) {
        ++Out.Timeouts;
        Replace(C, Now);
        continue;
      }
      AnyInFlight = true;
    }
    if (Now >= End && Backlog.empty() && !AnyInFlight)
      break;
    if (Now >= GiveUp || Alive == 0) {
      Out.Abandoned += Backlog.size();
      for (Conn &C : Conns)
        Out.Abandoned += C.Fd >= 0 && C.InFlight;
      break;
    }

    Pfds.clear();
    PfdConn.clear();
    for (size_t I = 0; I != Conns.size(); ++I) {
      Conn &C = Conns[I];
      if (C.Fd < 0)
        continue;
      pollfd P{};
      P.fd = C.Fd;
      P.events = POLLIN;
      if (C.OutOff < C.Out.size())
        P.events |= POLLOUT;
      Pfds.push_back(P);
      PfdConn.push_back(I);
    }
    // Sleep until the next due time, but spin through the last stretch so
    // the send is not late by a scheduler wake-up.
    uint64_t WaitNs = 0;
    if (Backlog.empty() || !std::any_of(Conns.begin(), Conns.end(),
                                        [](const Conn &C) {
                                          return C.Fd >= 0 && !C.InFlight;
                                        })) {
      uint64_t Until = NextDue < End ? NextDue : GiveUp;
      WaitNs = Until > Now ? Until - Now : 0;
      WaitNs = WaitNs > 40000 ? std::min<uint64_t>(WaitNs - 30000, 5000000)
                              : 0;
    }
    timespec Ts{static_cast<time_t>(WaitNs / 1000000000ull),
                static_cast<long>(WaitNs % 1000000000ull)};
    int Ready = ::ppoll(Pfds.data(), Pfds.size(), &Ts, nullptr);
    if (Ready < 0 && errno != EINTR)
      break;
    if (Ready <= 0)
      continue;
    Now = nowNs();
    for (size_t PI = 0; PI != Pfds.size(); ++PI) {
      short Re = Pfds[PI].revents;
      if (Re == 0)
        continue;
      Conn &C = Conns[PfdConn[PI]];
      bool Dead = false;
      if (Re & POLLOUT) {
        while (C.OutOff < C.Out.size()) {
          ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOff,
                             C.Out.size() - C.OutOff, MSG_NOSIGNAL);
          if (N > 0) {
            C.OutOff += static_cast<size_t>(N);
            continue;
          }
          if (N < 0 && errno == EINTR)
            continue;
          if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
          Dead = true;
          break;
        }
        if (C.OutOff == C.Out.size()) {
          C.Out.clear();
          C.OutOff = 0;
        }
      }
      if (!Dead && (Re & (POLLIN | POLLERR | POLLHUP))) {
        for (;;) {
          ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
          if (N > 0) {
            C.In.append(Buf, static_cast<size_t>(N));
            continue;
          }
          if (N < 0 && errno == EINTR)
            continue;
          if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
          Dead = true;
          break;
        }
        int Status = 0;
        std::string Body;
        while (popHttpResponse(C.In, Status, Body)) {
          if (!C.InFlight) {
            ++Out.BadResponses;
            continue;
          }
          C.InFlight = false;
          C.FreeSinceNs = Now;
          LastEvent = Now;
          ++Out.Completed;
          if (Status != 200)
            ++Out.Non200;
          C.Session.onResponse(Status, Body);
          if (C.Measured)
            Out.Latency.add(Now - C.DueNs);
        }
      }
      if (Dead) {
        ++Out.DroppedConns;
        if (C.InFlight)
          ++Out.Abandoned;
        Replace(C, Now);
      }
    }
  }
  Out.WallSeconds = static_cast<double>(std::max(LastEvent, End) - Start) / 1e9;
  Out.CpuSeconds = static_cast<double>(threadCpuNs() - Cpu0) / 1e9;
  for (Conn &C : Conns)
    if (C.Fd >= 0)
      ::close(C.Fd);
  return true;
}
