//===- DetectorSuite.cpp - Detector base and the dispatch table --------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "detect/Detectors.h"

#include <algorithm>
#include <cassert>

using namespace asyncg;
using namespace asyncg::detect;
using namespace asyncg::ag;
using namespace asyncg::jsrt;

//===----------------------------------------------------------------------===//
// DetectorBase
//===----------------------------------------------------------------------===//

void DetectorBase::warn(AsyncGBuilder &B, BugCategory Cat, NodeId Node,
                        Symbol Message, bool Sticky) {
  const AgNode &N = B.graph().node(Node);
  Warning W;
  W.Category = Cat;
  W.Message = Message;
  W.Loc = N.Loc;
  W.Node = Node;
  W.Tick = N.Tick;
  W.Sticky = Sticky;
  B.graph().addWarning(std::move(W));
}

void DetectorBase::warnAt(AsyncGBuilder &B, BugCategory Cat,
                          SourceLocation Loc, Symbol Message) {
  Warning W;
  W.Category = Cat;
  W.Message = Message;
  W.Loc = std::move(Loc);
  W.Node = InvalidNode;
  W.Tick = B.currentTickIndex();
  B.graph().addWarning(std::move(W));
}

//===----------------------------------------------------------------------===//
// DetectorSuite
//===----------------------------------------------------------------------===//

DetectorSuite::DetectorSuite(DetectorConfig Config)
    : Config(Config), Recursive(this->Config), Mixed(this->Config),
      TimeoutOrder(this->Config), DeadListener(this->Config),
      DeadEmit(this->Config), InvalidRemoval(this->Config),
      Duplicate(this->Config), AddWithin(this->Config),
      LeakDetector(this->Config), Promises(this->Config) {
  Active = {&Recursive,      &Mixed,        &TimeoutOrder,
            &DeadListener,   &DeadEmit,     &InvalidRemoval,
            &Duplicate,      &AddWithin,    &LeakDetector,
            &Promises};
  rebuild();
}

void DetectorSuite::disable(GraphObserver *D) {
  Active.erase(std::remove(Active.begin(), Active.end(), D), Active.end());
  rebuild();
}

void DetectorSuite::rebuild() {
  assert(Active.size() <= sizeof(Mask) * 8 && "one mask bit per detector");
  std::fill(&NodeTable[0][0], &NodeTable[0][0] + 4 * NumApis, Mask(0));
  std::fill(std::begin(EdgeTable), std::end(EdgeTable), Mask(0));
  std::fill(std::begin(CallTable), std::end(CallTable), Mask(0));
  std::fill(std::begin(ReleaseTable), std::end(ReleaseTable), Mask(0));
  RemovedMask = RegReleasedMask = RetireMask = EndMask = 0;
  for (size_t I = 0; I != Active.size(); ++I) {
    // Every Active entry is one of the members, all DetectorBases.
    Subscription S = static_cast<DetectorBase *>(Active[I])->subscription();
    Mask Bit = Mask(1u << I);
    for (unsigned K = 0; K != 4; ++K)
      for (unsigned A = 0; A != NumApis; ++A)
        if ((S.Nodes[K] >> A) & 1)
          NodeTable[K][A] |= Bit;
    for (unsigned K = 0; K != 4; ++K)
      if ((S.Edges >> K) & 1)
        EdgeTable[K] |= Bit;
    for (unsigned A = 0; A != NumApis; ++A)
      if ((S.Calls >> A) & 1)
        CallTable[A] |= Bit;
    if (S.EmitterReleases)
      ReleaseTable[0] |= Bit;
    if (S.PromiseReleases)
      ReleaseTable[1] |= Bit;
    if (S.RegistrationRemoved)
      RemovedMask |= Bit;
    if (S.RegistrationReleased)
      RegReleasedMask |= Bit;
    if (S.RegionRetire)
      RetireMask |= Bit;
    if (S.End)
      EndMask |= Bit;
  }
}

bool DetectorSuite::dispatchesTo(const GraphObserver *D) const {
  auto It = std::find(Active.begin(), Active.end(), D);
  if (It == Active.end())
    return false;
  Mask Bit = Mask(1u << (It - Active.begin()));
  Mask Any = RemovedMask | RegReleasedMask | RetireMask | EndMask |
             ReleaseTable[0] | ReleaseTable[1];
  for (unsigned K = 0; K != 4; ++K) {
    Any |= EdgeTable[K];
    for (unsigned A = 0; A != NumApis; ++A)
      Any |= NodeTable[K][A];
  }
  for (unsigned A = 0; A != NumApis; ++A)
    Any |= CallTable[A];
  return (Any & Bit) != 0;
}

void DetectorSuite::onNodeAdded(AsyncGBuilder &B, NodeId N) {
  const AgNode &Node = B.graph().node(N);
  Mask M = NodeTable[static_cast<unsigned>(Node.Kind)]
                    [static_cast<unsigned>(Node.Api)];
  forEachIn(M, [&](GraphObserver *D) { D->onNodeAdded(B, N); });
}

void DetectorSuite::onEdgeAdded(AsyncGBuilder &B, const AgEdge &E) {
  forEachIn(EdgeTable[static_cast<unsigned>(E.Kind)],
            [&](GraphObserver *D) { D->onEdgeAdded(B, E); });
}

void DetectorSuite::onApiEvent(AsyncGBuilder &B,
                               const instr::ApiCallEvent &E) {
  forEachIn(CallTable[static_cast<unsigned>(E.Api)],
            [&](GraphObserver *D) { D->onApiEvent(B, E); });
}

void DetectorSuite::onRegistrationRemoved(AsyncGBuilder &B, NodeId Cr) {
  forEachIn(RemovedMask,
            [&](GraphObserver *D) { D->onRegistrationRemoved(B, Cr); });
}

void DetectorSuite::onRegistrationReleased(AsyncGBuilder &B, NodeId Cr) {
  forEachIn(RegReleasedMask,
            [&](GraphObserver *D) { D->onRegistrationReleased(B, Cr); });
}

void DetectorSuite::onObjectReleased(AsyncGBuilder &B, NodeId Ob,
                                     ObjectId Obj, bool IsPromise) {
  forEachIn(ReleaseTable[IsPromise ? 1 : 0], [&](GraphObserver *D) {
    D->onObjectReleased(B, Ob, Obj, IsPromise);
  });
}

void DetectorSuite::onRegionRetire(AsyncGBuilder &B, uint32_t TickIndex) {
  forEachIn(RetireMask,
            [&](GraphObserver *D) { D->onRegionRetire(B, TickIndex); });
}

void DetectorSuite::onEnd(AsyncGBuilder &B) {
  forEachIn(EndMask, [&](GraphObserver *D) { D->onEnd(B); });
}
