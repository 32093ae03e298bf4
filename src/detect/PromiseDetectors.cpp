//===- PromiseDetectors.cpp - Promise-bug detectors (§VI-A.3) ----------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "detect/Detectors.h"

#include "support/Format.h"

#include <algorithm>

using namespace asyncg;
using namespace asyncg::detect;
using namespace asyncg::ag;
using namespace asyncg::jsrt;

namespace {

/// APIs that attach a reaction to a promise.
constexpr ApiSet ReactionApis =
    apiSet({ApiKind::PromiseThen, ApiKind::PromiseCatch,
            ApiKind::PromiseFinally, ApiKind::Await});

bool isReactionApi(ApiKind K) {
  return (ReactionApis >> static_cast<unsigned>(K)) & 1;
}

/// Relation labels that derive one promise from another through a
/// reaction (mirrors AsyncGraph::derivedPromises; combinator inputs and
/// adoption links are not derivations).
bool isDerivationLabel(Symbol L) {
  static const Symbol Then("then"), Catch("catch"), Finally("finally");
  return L == Then || L == Catch || L == Finally;
}

} // namespace

Subscription PromiseDetector::subscription() const {
  Subscription S;
  S.nodes(NodeKind::OB, AllApis)
      .nodes(NodeKind::CT,
             apiSet({ApiKind::PromiseResolve, ApiKind::PromiseReject}))
      // Reactions (internal adoption ones too), the only registrations
      // that react to or derive a promise.
      .nodes(NodeKind::CR, ReactionApis | apiSet({ApiKind::Internal}))
      .edges(EdgeKind::Relation);
  S.PromiseReleases = true;
  S.End = true;
  return S;
}

void PromiseDetector::onNodeAdded(AsyncGBuilder &B, NodeId N) {
  const AgNode &Node = B.graph().node(N);

  // A new promise: start its state record. Internal promises never warn
  // and are not tracked (their derivation edges are still counted on the
  // non-internal endpoints below).
  if (Node.Kind == NodeKind::OB && Node.IsPromise) {
    if (!Node.Internal) {
      PromState &P = Proms[Node.Obj];
      P = PromState();
      P.Ob = N;
    }
    return;
  }

  // Settle trigger actions.
  if (Node.Kind == NodeKind::CT && (Node.Api == ApiKind::PromiseResolve ||
                                    Node.Api == ApiKind::PromiseReject)) {
    if (Node.HadEffect) {
      if (PromState *P = Proms.find(Node.Obj))
        P->Settled = true;
      return;
    }
    if (!Node.Internal)
      warn(B, BugCategory::DoubleSettle, N,
           message(static_cast<uint64_t>(Node.Api), [&] {
             return strFormat("%s on an already-settled promise has no "
                              "effect (double resolve or reject)",
                              apiKindName(Node.Api));
           }));
    return;
  }

  if (Node.Kind != NodeKind::CR)
    return;

  // Reaction registrations (user-level and internal adoption/combinator
  // reactions; the latter also count — a promise consumed by a combinator
  // or adopted into a chain is handled).
  if (Node.Obj != 0 &&
      (isReactionApi(Node.Api) || Node.Api == ApiKind::Internal)) {
    if (PromState *P = Proms.find(Node.Obj)) {
      P->Reacted = true;
      if (Node.HasRejectHandler)
        P->RejectHandled = true;
    }
  }

  // The newest CR deriving a promise decides whether its chain ends with
  // a reject reaction (last writer wins, as the old full scan's node-order
  // map did).
  if (Node.DerivedObj != 0)
    if (PromState *P = Proms.find(Node.DerivedObj))
      P->DerivingCrHasReject = Node.HasRejectHandler;
}

void PromiseDetector::onEdgeAdded(AsyncGBuilder &B, const AgEdge &E) {
  // Promise chain derivations: a then/catch/finally relation edge between
  // two promise OBs (the builder also labels OB->CR edges with API names,
  // so both endpoint kinds must be checked).
  if (E.Kind != EdgeKind::Relation || !isDerivationLabel(E.Label))
    return;
  const AgNode &From = B.graph().node(E.From);
  const AgNode &To = B.graph().node(E.To);
  if (From.Kind != NodeKind::OB || !From.IsPromise ||
      To.Kind != NodeKind::OB || !To.IsPromise)
    return;
  static const Symbol Then("then");
  if (PromState *P = Proms.find(From.Obj)) {
    ++P->DerivedCount;
    if (E.Label == Then)
      ++P->DerivedThenCount;
  }
  if (PromState *P = Proms.find(To.Obj))
    P->HasParent = true;
}

void PromiseDetector::judge(AsyncGBuilder &B, const PromState &P,
                            bool Sticky) {
  static const Symbol DeadMsg(
      "promise was never resolved or rejected during this execution "
      "(dead promise)");
  static const Symbol NoReactionMsg(
      "promise settled but has no reaction (no then/catch/await uses its "
      "result)");
  static const Symbol NoRejectMsg(
      "promise chain does not end with a reject reaction: an exception "
      "anywhere in the chain would be silently dropped");
  static const Symbol MissingReturnMsg(
      "the reaction producing this promise returned undefined but the "
      "chain continues: the next then receives undefined (missing "
      "return)");
  const AgNode &N = B.graph().node(P.Ob);
  bool IsRoot = !P.HasParent;

  // §VI-A.3a: never settled during this execution.
  if (!P.Settled && IsRoot)
    warn(B, BugCategory::DeadPromise, P.Ob, DeadMsg, Sticky);

  // §VI-A.3b: settled but nothing ever reacted (then/catch/await/...).
  if (P.Settled && IsRoot && !P.Reacted)
    warn(B, BugCategory::MissingReaction, P.Ob, NoReactionMsg, Sticky);

  // §VI-A.3c: the chain ending here has no rejection handler. Reported
  // even when no exception was actually thrown (the paper checks chain
  // structure, not executions).
  if (P.DerivedCount == 0 && !P.RejectHandled && !IsRoot &&
      !P.DerivingCrHasReject)
    warn(B, BugCategory::MissingExceptionalReaction, P.Ob, NoRejectMsg,
         Sticky);

  // §VI-A.3d: a reaction returned undefined but the chain continues with
  // a value-consuming then (a trailing catch does not use the value).
  if (N.ReactionReturnedUndefined && P.DerivedThenCount != 0)
    warn(B, BugCategory::MissingReturnInThen, P.Ob, MissingReturnMsg,
         Sticky);
}

void PromiseDetector::onObjectReleased(AsyncGBuilder &B, NodeId Ob,
                                       ObjectId Obj, bool IsPromise) {
  (void)Ob;
  if (!IsPromise)
    return;
  PromState *P = Proms.find(Obj);
  if (!P)
    return;
  // A released promise's fate is final: nothing can settle it, react to
  // it, or derive from it any more. Issue the definitive verdicts and
  // drop the record.
  judge(B, *P, /*Sticky=*/true);
  Proms.erase(Obj);
}

void PromiseDetector::onEnd(AsyncGBuilder &B) {
  AsyncGraph &G = B.graph();
  G.clearWarnings({BugCategory::DeadPromise, BugCategory::MissingReaction,
                   BugCategory::MissingExceptionalReaction,
                   BugCategory::MissingReturnInThen});

  // O(live promises), not a graph sweep; node-id order matches the old
  // full scan and keeps retire-on/off reports identical.
  EndScratch.clear();
  for (const auto &KV : Proms)
    EndScratch.push_back(&KV.second);
  std::sort(EndScratch.begin(), EndScratch.end(),
            [](const PromState *A, const PromState *B) {
              return A->Ob < B->Ob;
            });
  for (const PromState *P : EndScratch)
    judge(B, *P, /*Sticky=*/false);
}
