//===- Detectors.h - Automatic bug detectors over the AG --------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The automatic bug detectors of §VI-A, implemented as graph observers
/// that analyze the Async Graph online (as it is built) plus an end-of-run
/// pass for liveness properties (dead listeners, dead promises, missing
/// reactions, missing exception handlers, missing returns).
///
/// Scheduling bugs:   RecursiveMicrotask, MixedSimilarApis,
///                    TimeoutExecutionOrder.
/// Emitter bugs:      DeadListener, DeadEmit, InvalidListenerRemoval,
///                    DuplicateListener, AddListenerWithinListener.
/// Promise bugs:      DeadPromise, MissingReaction,
///                    MissingExceptionalReaction, MissingReturnInThen,
///                    DoubleSettle.
///
/// Use DetectorSuite to attach all of them at once; it routes each graph
/// event only to the detectors whose subscription() consumes it:
/// \code
///   ag::AsyncGBuilder Builder;
///   detect::DetectorSuite Detectors;
///   Detectors.attachTo(Builder);
///   RT.hooks().attach(&Builder);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_DETECT_DETECTORS_H
#define ASYNCG_DETECT_DETECTORS_H

#include "ag/Builder.h"
#include "ag/Graph.h"
#include "ag/Observer.h"
#include "support/FlatMap.h"

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace asyncg {
namespace detect {

/// Detector tunables.
struct DetectorConfig {
  /// Warn on recursive micro-task scheduling from the Nth consecutive
  /// micro-tick self-registration on (1 warns on the first recursion, as
  /// the paper's Fig. 3(a) does starting at t2).
  unsigned RecursiveMicrotaskThreshold = 1;
  /// setTimeout delays at or below this (ms) count as "setTimeout(0)" for
  /// the Mixing-Similar-APIs family.
  double ZeroTimeoutMs = 1.0;
  /// Live listeners for one (emitter, event) beyond this trigger the
  /// Listener-Leak warning (Node's MaxListenersExceededWarning default).
  unsigned MaxListeners = 10;
};

/// A set of jsrt::ApiKind values, one bit per kind.
using ApiSet = uint64_t;
static_assert(static_cast<unsigned>(jsrt::ApiKind::ClusterRecv) < 64,
              "ApiSet needs one bit per ApiKind");

constexpr ApiSet apiSet(std::initializer_list<jsrt::ApiKind> Kinds) {
  ApiSet S = 0;
  for (jsrt::ApiKind K : Kinds)
    S |= ApiSet(1) << static_cast<unsigned>(K);
  return S;
}
constexpr ApiSet AllApis = ~ApiSet(0);

/// APIs that register a listener on an emitter, including the node-layer
/// server constructors, whose callback is a listener on an internal
/// emitter (the paper's Fig. 3).
constexpr ApiSet ListenerApis =
    apiSet({jsrt::ApiKind::EmitterOn, jsrt::ApiKind::EmitterOnce,
            jsrt::ApiKind::EmitterPrepend, jsrt::ApiKind::NetCreateServer,
            jsrt::ApiKind::HttpCreateServer});

/// The observer callbacks a detector consumes. DetectorSuite builds its
/// dispatch table from these declarations, so an event reaches only the
/// detectors that use it. The declaration only narrows delivery: every
/// detector still checks its own conditions and stays correct when it is
/// attached directly and receives every event.
struct Subscription {
  /// onNodeAdded: for each NodeKind (CR, CE, CT, OB), the node APIs.
  ApiSet Nodes[4] = {0, 0, 0, 0};
  /// onEdgeAdded: one bit per EdgeKind.
  uint8_t Edges = 0;
  /// onApiEvent: the call's API.
  ApiSet Calls = 0;
  /// onObjectReleased for emitters / for promises.
  bool EmitterReleases = false;
  bool PromiseReleases = false;
  bool RegistrationRemoved = false;
  bool RegistrationReleased = false;
  bool RegionRetire = false;
  bool End = false;

  Subscription &nodes(ag::NodeKind K, ApiSet Apis) {
    Nodes[static_cast<unsigned>(K)] |= Apis;
    return *this;
  }
  Subscription &edges(ag::EdgeKind K) {
    Edges |= uint8_t(1u << static_cast<unsigned>(K));
    return *this;
  }
};

/// Base class for detectors: carries the config, the subscription and the
/// warning helpers.
class DetectorBase : public ag::GraphObserver {
public:
  explicit DetectorBase(const DetectorConfig &Config) : Config(Config) {}

  /// The callbacks this detector consumes.
  virtual Subscription subscription() const = 0;

protected:
  /// Adds a warning anchored at \p Node. Sticky warnings are definitive
  /// verdicts (issued at release events) that survive clearWarnings.
  void warn(ag::AsyncGBuilder &B, ag::BugCategory Cat, ag::NodeId Node,
            Symbol Message, bool Sticky = false);

  /// Adds a node-less warning (e.g. invalid listener removal call sites).
  void warnAt(ag::AsyncGBuilder &B, ag::BugCategory Cat, SourceLocation Loc,
              Symbol Message);

  /// The interned message for \p Key, formatted by \p Format (returning
  /// std::string) only the first time the key is seen. \p Key must fix
  /// the text: detectors pack the format inputs into it (an event Symbol,
  /// an ApiKind), so a warning repeated at every release costs one probe,
  /// not a format and an intern.
  template <typename Fn> Symbol message(uint64_t Key, Fn &&Format) {
    Symbol &S = Messages[Key];
    if (S.empty())
      S = Symbol(Format());
    return S;
  }

  const DetectorConfig &Config;

private:
  FlatMap<uint64_t, Symbol> Messages;
};

/// Live listener counts per (emitter, event, function), grouped by emitter
/// so an emitter's release or removeAllListeners touches only its own
/// entries instead of scanning every live key.
class ListenerCounts {
public:
  /// The count for (\p Obj, \p Event, \p Fn), created at zero.
  unsigned &at(jsrt::ObjectId Obj, Symbol Event, jsrt::FunctionId Fn);
  /// Decrements the count if it exists and is positive.
  void decrement(jsrt::ObjectId Obj, Symbol Event, jsrt::FunctionId Fn);
  /// Drops every count of (\p Obj, \p Event).
  void clearEvent(jsrt::ObjectId Obj, Symbol Event);
  /// Drops every count of the emitter.
  void eraseEmitter(jsrt::ObjectId Obj) { ByEmitter.erase(Obj); }

private:
  struct Entry {
    Symbol Event;
    jsrt::FunctionId Fn;
    unsigned Count;
  };
  FlatMap<jsrt::ObjectId, std::vector<Entry>> ByEmitter;
};

//===----------------------------------------------------------------------===//
// Scheduling-bug detectors (§VI-A.1)
//===----------------------------------------------------------------------===//

/// §VI-A.1a: recursive micro-tasks starve every other queue (Fig. 1).
class RecursiveMicrotaskDetector : public DetectorBase {
public:
  using DetectorBase::DetectorBase;
  const char *observerName() const override { return "recursive-microtask"; }
  Subscription subscription() const override;
  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override;

private:
  FlatMap<jsrt::FunctionId, unsigned> Streak;
};

/// §VI-A.1b: mixing nextTick / setTimeout(0) / setImmediate in one tick.
class MixedSimilarApisDetector : public DetectorBase {
public:
  using DetectorBase::DetectorBase;
  const char *observerName() const override { return "mixed-similar-apis"; }
  Subscription subscription() const override;
  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override;

private:
  /// First CR node of each deferral family (nextTick, setTimeout(0),
  /// setImmediate) in tick SeenTick; reset when a node of a later tick
  /// arrives, so no per-tick callback is needed.
  uint32_t SeenTick = 0;
  ag::NodeId FirstCr[3] = {ag::InvalidNode, ag::InvalidNode, ag::InvalidNode};
};

/// §VI-A.1c: a same-tick setTimeout with a larger delay executed before a
/// sibling with a smaller delay.
class TimeoutOrderDetector : public DetectorBase {
public:
  using DetectorBase::DetectorBase;
  const char *observerName() const override { return "timeout-order"; }
  Subscription subscription() const override;
  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override;
  void onRegionRetire(ag::AsyncGBuilder &B, uint32_t TickIndex) override;

private:
  /// setTimeout CR nodes grouped by registration tick; a tick's group is
  /// dropped when its region retires (the sibling ids die with it).
  FlatMap<uint32_t, std::vector<ag::NodeId>> ByTick;
};

//===----------------------------------------------------------------------===//
// Emitter-bug detectors (§VI-A.2)
//===----------------------------------------------------------------------===//

/// §VI-A.2a: listeners that never executed. Incremental: a pending set of
/// never-executed listener CRs is maintained from graph events, so the
/// end-of-run pass is O(pending) instead of a full node sweep, and a
/// listener whose emitter is released gets a definitive (sticky) warning
/// at the release point — before the region can be retired.
class DeadListenerDetector : public DetectorBase {
public:
  using DetectorBase::DetectorBase;
  const char *observerName() const override { return "dead-listener"; }
  Subscription subscription() const override;
  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override;
  void onEdgeAdded(ag::AsyncGBuilder &B, const ag::AgEdge &E) override;
  void onRegistrationRemoved(ag::AsyncGBuilder &B, ag::NodeId Cr) override;
  void onRegistrationReleased(ag::AsyncGBuilder &B, ag::NodeId Cr) override;
  void onEnd(ag::AsyncGBuilder &B) override;

private:
  Symbol messageFor(const ag::AgNode &N);

  /// Non-internal listener CRs that never executed. Every member's
  /// registration is still pending in the builder, which pins its region:
  /// members are always live nodes.
  FlatMap<ag::NodeId, char> PendingSet;
};

/// §VI-A.2b: emits with no registered listener (online).
class DeadEmitDetector : public DetectorBase {
public:
  using DetectorBase::DetectorBase;
  const char *observerName() const override { return "dead-emit"; }
  Subscription subscription() const override;
  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override;
};

/// §VI-A.2c: removeListener with a function that was never registered.
class InvalidRemovalDetector : public DetectorBase {
public:
  using DetectorBase::DetectorBase;
  const char *observerName() const override { return "invalid-removal"; }
  Subscription subscription() const override;
  void onApiEvent(ag::AsyncGBuilder &B,
                  const instr::ApiCallEvent &E) override;
};

/// §VI-A.2d: the same function registered twice for the same event.
class DuplicateListenerDetector : public DetectorBase {
public:
  using DetectorBase::DetectorBase;
  const char *observerName() const override { return "duplicate-listener"; }
  Subscription subscription() const override;
  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override;
  void onApiEvent(ag::AsyncGBuilder &B,
                  const instr::ApiCallEvent &E) override;
  void onObjectReleased(ag::AsyncGBuilder &B, ag::NodeId Ob,
                        jsrt::ObjectId Obj, bool IsPromise) override;

private:
  /// Live listener counts; entries of a released emitter are purged so the
  /// map stays proportional to the live emitters.
  ListenerCounts Live;
};

/// Extra (beyond the paper, Node's MaxListenersExceededWarning): more than
/// MaxListeners live listeners for one (emitter, event) — usually a
/// subscription leak (a listener added per request and never removed).
class ListenerLeakDetector : public DetectorBase {
public:
  using DetectorBase::DetectorBase;
  const char *observerName() const override { return "listener-leak"; }
  Subscription subscription() const override;
  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override;
  void onApiEvent(ag::AsyncGBuilder &B,
                  const instr::ApiCallEvent &E) override;
  void onObjectReleased(ag::AsyncGBuilder &B, ag::NodeId Ob,
                        jsrt::ObjectId Obj, bool IsPromise) override;

private:
  /// Live listener counts per (emitter, event) (the function slot is
  /// unused); purged on emitter release.
  ListenerCounts Live;
};

/// §VI-A.2e: a listener registered during another listener of the same
/// emitter (can be lost if the outer listener never runs, SO-17894000).
class AddListenerWithinListenerDetector : public DetectorBase {
public:
  using DetectorBase::DetectorBase;
  const char *observerName() const override {
    return "add-listener-within-listener";
  }
  Subscription subscription() const override;
  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override;
};

//===----------------------------------------------------------------------===//
// Promise-bug detectors (§VI-A.3)
//===----------------------------------------------------------------------===//

/// Shared promise bookkeeping: which promises settled / gained reactions.
/// §VI-A.3a (DeadPromise), 3b (MissingReaction), 3c
/// (MissingExceptionalReaction), 3d (MissingReturn), 3e (DoubleSettle).
///
/// Incremental: one compact state record per live non-internal promise,
/// maintained from node/edge events. When the runtime releases a promise
/// its fate is final (nothing can settle it or react to it any more), so
/// its verdicts are issued as sticky warnings and the record is dropped —
/// the liveness passes never sweep the graph, and state is proportional
/// to the live promises.
class PromiseDetector : public DetectorBase {
public:
  using DetectorBase::DetectorBase;
  const char *observerName() const override { return "promise-bugs"; }
  Subscription subscription() const override;
  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override;
  void onEdgeAdded(ag::AsyncGBuilder &B, const ag::AgEdge &E) override;
  void onObjectReleased(ag::AsyncGBuilder &B, ag::NodeId Ob,
                        jsrt::ObjectId Obj, bool IsPromise) override;
  void onEnd(ag::AsyncGBuilder &B) override;

private:
  /// Everything the liveness warnings need to decide a promise's fate.
  struct PromState {
    ag::NodeId Ob = ag::InvalidNode;
    bool Settled = false;
    bool Reacted = false;
    bool RejectHandled = false;
    /// Derived from another promise via then/catch/finally (not a root).
    bool HasParent = false;
    /// Reject-handler bit of the newest CR deriving this promise.
    bool DerivingCrHasReject = false;
    /// Outgoing then/catch/finally derivations; "then" only.
    uint32_t DerivedCount = 0;
    uint32_t DerivedThenCount = 0;
  };

  /// Issues the liveness warnings for one promise's final (release) or
  /// current (end-of-run) state. The OB node is live in both cases.
  void judge(ag::AsyncGBuilder &B, const PromState &P, bool Sticky);

  FlatMap<jsrt::ObjectId, PromState> Proms;
  /// Scratch for the end-of-run pass (sorted for deterministic output).
  std::vector<const PromState *> EndScratch;
};

//===----------------------------------------------------------------------===//
// The full suite
//===----------------------------------------------------------------------===//

/// Owns one instance of every detector and dispatches observer callbacks
/// through one table built from the detectors' subscriptions: each node,
/// edge, API call or release reaches only the detectors that consume it,
/// in the suite's detector order. Individual detectors can be disabled
/// before attaching.
class DetectorSuite : public ag::GraphObserver {
  /// Declared before the detectors: they hold references into it.
  DetectorConfig Config;

public:
  explicit DetectorSuite(DetectorConfig Config = DetectorConfig());

  const char *observerName() const override { return "detectors"; }

  /// Registers the suite with \p B.
  void attachTo(ag::AsyncGBuilder &B) { B.addObserver(this); }

  /// Disables a detector (before running) and rebuilds the table.
  void disable(ag::GraphObserver *D);

  /// Enabled detectors, in dispatch order.
  const std::vector<ag::GraphObserver *> &detectors() const { return Active; }

  /// True if any table entry dispatches to \p D.
  bool dispatchesTo(const ag::GraphObserver *D) const;

  RecursiveMicrotaskDetector Recursive;
  MixedSimilarApisDetector Mixed;
  TimeoutOrderDetector TimeoutOrder;
  DeadListenerDetector DeadListener;
  DeadEmitDetector DeadEmit;
  InvalidRemovalDetector InvalidRemoval;
  DuplicateListenerDetector Duplicate;
  AddListenerWithinListenerDetector AddWithin;
  ListenerLeakDetector LeakDetector;
  PromiseDetector Promises;

  void onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) override;
  void onEdgeAdded(ag::AsyncGBuilder &B, const ag::AgEdge &E) override;
  void onApiEvent(ag::AsyncGBuilder &B,
                  const instr::ApiCallEvent &E) override;
  void onRegistrationRemoved(ag::AsyncGBuilder &B, ag::NodeId Cr) override;
  void onRegistrationReleased(ag::AsyncGBuilder &B, ag::NodeId Cr) override;
  void onObjectReleased(ag::AsyncGBuilder &B, ag::NodeId Ob,
                        jsrt::ObjectId Obj, bool IsPromise) override;
  void onRegionRetire(ag::AsyncGBuilder &B, uint32_t TickIndex) override;
  void onEnd(ag::AsyncGBuilder &B) override;

private:
  /// One bit per Active index.
  using Mask = uint16_t;
  static constexpr unsigned NumApis =
      static_cast<unsigned>(jsrt::ApiKind::ClusterRecv) + 1;

  /// Rebuilds every table entry from the Active detectors' subscriptions.
  void rebuild();

  /// Calls \p Call on every Active detector whose bit is set in \p M, in
  /// Active order.
  template <typename Fn> void forEachIn(Mask M, Fn &&Call) {
    for (unsigned Bits = M; Bits != 0; Bits &= Bits - 1)
      Call(Active[static_cast<size_t>(__builtin_ctz(Bits))]);
  }

  std::vector<ag::GraphObserver *> Active;
  /// The dispatch table.
  Mask NodeTable[4][NumApis];
  Mask EdgeTable[4];
  Mask CallTable[NumApis];
  /// Indexed by IsPromise.
  Mask ReleaseTable[2];
  Mask RemovedMask;
  Mask RegReleasedMask;
  Mask RetireMask;
  Mask EndMask;
};

} // namespace detect
} // namespace asyncg

#endif // ASYNCG_DETECT_DETECTORS_H
