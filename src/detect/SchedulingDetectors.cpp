//===- SchedulingDetectors.cpp - Scheduling-bug detectors (§VI-A.1) ----------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "detect/Detectors.h"

#include "support/Format.h"

using namespace asyncg;
using namespace asyncg::detect;
using namespace asyncg::ag;
using namespace asyncg::jsrt;

//===----------------------------------------------------------------------===//
// Recursive micro-tasks (§VI-A.1a)
//===----------------------------------------------------------------------===//

Subscription RecursiveMicrotaskDetector::subscription() const {
  return Subscription().nodes(
      NodeKind::CR, apiSet({ApiKind::NextTick, ApiKind::PromiseThen}));
}

void RecursiveMicrotaskDetector::onNodeAdded(AsyncGBuilder &B, NodeId N) {
  const AgNode &Node = B.graph().node(N);
  if (Node.Kind != NodeKind::CR)
    return;
  if (Node.Api != ApiKind::NextTick && Node.Api != ApiKind::PromiseThen)
    return;
  if (!isMicrotaskPhase(B.currentTickPhase()))
    return;
  NodeId Ce = B.currentCe();
  if (Ce == InvalidNode)
    return;
  const AgNode &Exec = B.graph().node(Ce);
  if (Exec.Func == 0 || Exec.Func != Node.Func)
    return;
  unsigned Count = ++Streak[Node.Func];
  if (Count < Config.RecursiveMicrotaskThreshold)
    return;
  warn(B, BugCategory::RecursiveMicrotask, N,
       message(static_cast<uint64_t>(Node.Api), [&] {
         return strFormat("recursive %s re-schedules the running callback; "
                          "the micro-task queue starves all other phases",
                          apiKindName(Node.Api));
       }));
}

//===----------------------------------------------------------------------===//
// Mixing similar APIs (§VI-A.1b)
//===----------------------------------------------------------------------===//

namespace {

/// The deferral family of a registration, or -1.
int deferralFamily(const AgNode &N, double ZeroTimeoutMs) {
  switch (N.Api) {
  case ApiKind::NextTick:
    return 0;
  case ApiKind::SetTimeout:
    return N.TimeoutMs <= ZeroTimeoutMs ? 1 : -1;
  case ApiKind::SetImmediate:
    return 2;
  default:
    return -1;
  }
}

const char *familyName(int F) {
  switch (F) {
  case 0:
    return "process.nextTick";
  case 1:
    return "setTimeout(0)";
  case 2:
    return "setImmediate";
  }
  return "?";
}

} // namespace

Subscription MixedSimilarApisDetector::subscription() const {
  return Subscription().nodes(NodeKind::CR,
                              apiSet({ApiKind::NextTick, ApiKind::SetTimeout,
                                      ApiKind::SetImmediate}));
}

void MixedSimilarApisDetector::onNodeAdded(AsyncGBuilder &B, NodeId N) {
  const AgNode &Node = B.graph().node(N);
  if (Node.Kind != NodeKind::CR || Node.Internal)
    return;
  int F = deferralFamily(Node, Config.ZeroTimeoutMs);
  if (F < 0)
    return;
  if (Node.Tick != SeenTick) {
    SeenTick = Node.Tick;
    for (NodeId &First : FirstCr)
      First = InvalidNode;
  }
  for (int Other = 0; Other != 3; ++Other) {
    if (Other == F || FirstCr[Other] == InvalidNode)
      continue;
    // One key per (family, other family) pair for each of the two
    // messages; bit 4 tells the second message apart.
    uint64_t Key = static_cast<uint64_t>(F * 3 + Other);
    warn(B, BugCategory::MixedSimilarApis, N, message(Key, [&] {
           return strFormat("%s mixed with %s in the same tick: their "
                            "callbacks execute in different event-loop "
                            "phases, not in registration order",
                            familyName(F), familyName(Other));
         }));
    warn(B, BugCategory::MixedSimilarApis, FirstCr[Other],
         message(Key | 16, [&] {
           return strFormat("%s mixed with %s in the same tick",
                            familyName(Other), familyName(F));
         }));
    break;
  }
  if (FirstCr[F] == InvalidNode)
    FirstCr[F] = N;
}

//===----------------------------------------------------------------------===//
// Unexpected timeout execution order (§VI-A.1c)
//===----------------------------------------------------------------------===//

Subscription TimeoutOrderDetector::subscription() const {
  Subscription S;
  S.nodes(NodeKind::CR, apiSet({ApiKind::SetTimeout}))
      .nodes(NodeKind::CE, apiSet({ApiKind::SetTimeout}));
  S.RegionRetire = true;
  return S;
}

void TimeoutOrderDetector::onRegionRetire(AsyncGBuilder &B,
                                          uint32_t TickIndex) {
  (void)B;
  // The tick's CR siblings are about to be reclaimed; no future CE can
  // bind to a registration from a retired (fully quiesced) region.
  ByTick.erase(TickIndex);
}

void TimeoutOrderDetector::onNodeAdded(AsyncGBuilder &B, NodeId N) {
  const AgNode &Node = B.graph().node(N);

  if (Node.Kind == NodeKind::CR && Node.Api == ApiKind::SetTimeout &&
      !Node.Internal) {
    ByTick[Node.Tick].push_back(N);
    return;
  }

  if (Node.Kind != NodeKind::CE || Node.Api != ApiKind::SetTimeout)
    return;
  NodeId Cr = B.graph().registrationNode(Node.Sched);
  if (Cr == InvalidNode)
    return;
  const AgNode &Reg = B.graph().node(Cr);
  const std::vector<NodeId> *Siblings = ByTick.find(Reg.Tick);
  if (!Siblings)
    return;
  for (NodeId Sibling : *Siblings) {
    if (Sibling == Cr)
      continue;
    const AgNode &S = B.graph().node(Sibling);
    if (S.TimeoutMs < Reg.TimeoutMs && S.ExecCount == 0 && !S.Removed) {
      warn(B, BugCategory::TimeoutExecutionOrder, N,
           strFormat("setTimeout(%s ms) executed before the same-tick "
                     "setTimeout(%s ms): expired timers run in "
                     "registration order, not timeout order",
                     formatNumber(Reg.TimeoutMs).c_str(),
                     formatNumber(S.TimeoutMs).c_str()));
      return;
    }
  }
}
