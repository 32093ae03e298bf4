//===- Hooks.h - Instrumentation hook interface -----------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation framework standing in for NodeProf (§V-A): the jsrt
/// runtime fires events at every function invocation, asynchronous API
/// call, object creation, promise settlement, and loop lifecycle point.
/// Analyses subclass AnalysisBase and attach to the registry; they can be
/// attached and detached at runtime ("AsyncG is pluggable, and can be
/// enabled/disabled at runtime"), and with no analyses attached every hook
/// site reduces to a single empty() check.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_INSTR_HOOKS_H
#define ASYNCG_INSTR_HOOKS_H

#include "jsrt/ApiKind.h"
#include "jsrt/Completion.h"
#include "jsrt/Dispatch.h"
#include "jsrt/Function.h"
#include "jsrt/Ids.h"
#include "jsrt/PhaseKind.h"
#include "jsrt/Value.h"
#include "support/SourceLocation.h"
#include "support/SymbolTable.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace asyncg {
namespace instr {

/// Counts ApiCallEvent / ObjectCreateEvent constructions. Hook sites must
/// build these only behind a !HookRegistry::empty() guard; the lazy-fire
/// test asserts this stays 0 through an uninstrumented run. Atomic because
/// the async pipeline's decoder reconstructs events on the builder thread
/// while the loop thread keeps constructing its own.
uint64_t constructedEventCount();
void resetConstructedEventCount();
namespace detail {
/// Per-thread: each loop thread (and the pipeline's decoder thread)
/// counts its own constructions, so the hot path pays a plain increment
/// instead of an atomic RMW. constructedEventCount() reads the calling
/// thread's count, which is what the lazy-fire test observes. constinit:
/// with no dynamic initialization to run, other translation units access
/// it directly instead of through a TLS wrapper call, which also keeps
/// UBSan from flagging the access when the variable sits at TLS offset 0.
extern thread_local constinit uint64_t ConstructedEvents;
}

/// Fired before a function body runs (Algorithm 1/3's functionEnter).
struct FunctionEnterEvent {
  const jsrt::Function &F;
  const jsrt::CallArgs &Args;
  const jsrt::DispatchInfo &Dispatch;
};

/// Fired after a function body runs (Algorithm 1's functionExit).
struct FunctionExitEvent {
  const jsrt::Function &F;
  const jsrt::Completion &Result;
  const jsrt::DispatchInfo &Dispatch;
};

/// Fired at every asynchronous API call: registrations (CR nodes) and
/// trigger actions (CT nodes). This carries the information Algorithm 2's
/// per-API templates extract: which callbacks, the target phase, whether
/// the callback runs once, and the bound emitter/promise object.
struct ApiCallEvent {
  ApiCallEvent() { ++detail::ConstructedEvents; }

  /// Resets every field to its construction default while keeping the
  /// Callbacks/InputObjs heap capacity, so a scratch event can be reused
  /// across fire sites without reallocating per call (see scratchApiCall).
  void clear() {
    ++detail::ConstructedEvents;
    Api = jsrt::ApiKind::None;
    Loc = SourceLocation();
    Sched = 0;
    Callbacks.clear();
    TargetPhase = jsrt::PhaseKind::Main;
    Once = true;
    BoundObj = 0;
    DerivedObj = 0;
    InputObjs.clear();
    EventName = Symbol();
    TimeoutMs = 0;
    HasRejectHandler = false;
    Trigger = 0;
    TriggerHadEffect = false;
    Internal = false;
  }

  jsrt::ApiKind Api = jsrt::ApiKind::None;
  /// Call-site location.
  SourceLocation Loc;
  /// Registration id (CR identity); 0 for pure trigger actions.
  jsrt::ScheduleId Sched = 0;
  /// The callbacks registered by this call.
  std::vector<jsrt::Function> Callbacks;
  /// The phase the callbacks will be scheduled in.
  jsrt::PhaseKind TargetPhase = jsrt::PhaseKind::Main;
  /// True if the callback is scheduled exactly once (setImmediate) rather
  /// than possibly many times (emitter.on, setInterval).
  bool Once = true;
  /// Emitter/promise object the call is bound to; 0 when none.
  jsrt::ObjectId BoundObj = 0;
  /// Derived promise created by this call (then/catch/combinators).
  jsrt::ObjectId DerivedObj = 0;
  /// Input promises for combinators.
  std::vector<jsrt::ObjectId> InputObjs;
  /// Emitter event name (interned).
  Symbol EventName;
  /// Timer delay in milliseconds (timers only).
  double TimeoutMs = 0;
  /// True if this registration includes a rejection handler (then with two
  /// arguments, catch, await).
  bool HasRejectHandler = false;
  /// Trigger action id (CT identity); 0 for registrations.
  jsrt::TriggerId Trigger = 0;
  /// For triggers: true iff the action did something (emit had listeners /
  /// settle changed state). A false value on emit is a dead emit; a false
  /// value on resolve/reject is a double settle.
  bool TriggerHadEffect = false;
  /// True when the call originates from internal library machinery rather
  /// than application code.
  bool Internal = false;
};

/// Returns a cleared thread-local scratch ApiCallEvent. Hot fire sites
/// reuse it so the Callbacks/InputObjs heap capacity survives across
/// events instead of being allocated and freed per API call. The reference
/// is valid until the next scratchApiCall() on this thread; hook handlers
/// must copy anything they keep (they already do — the event dies at the
/// end of the fire either way).
inline ApiCallEvent &scratchApiCall() {
  thread_local ApiCallEvent E;
  E.clear();
  return E;
}

/// Fired when a promise or emitter object is created (OB nodes).
struct ObjectCreateEvent {
  ObjectCreateEvent() { ++detail::ConstructedEvents; }

  jsrt::ObjectId Obj = 0;
  bool IsPromise = false;
  /// Debug name ("EventEmitter", "Promise", "http.Server", ...), interned.
  Symbol Name;
  SourceLocation Loc;
  bool Internal = false;
  /// For promises derived from another promise: the parent and the API
  /// that derived it (then/catch/all/...), driving the dashed relation
  /// edges between OB nodes.
  jsrt::ObjectId Parent = 0;
  jsrt::ApiKind Relation = jsrt::ApiKind::None;
};

/// Fired when a then-reaction returns and its result resolves the derived
/// promise. Feeds the Missing-Return and Broken-Promise-Chain analyses.
struct ReactionResultEvent {
  jsrt::ObjectId Source = 0;
  jsrt::ObjectId Derived = 0;
  jsrt::ScheduleId Sched = 0;
  bool ReturnedUndefined = false;
  bool Threw = false;
};

/// Fired when a then-reaction returns a promise that gets adopted into the
/// chain (the paper's "link" relation edge).
struct PromiseLinkEvent {
  /// The promise returned by the reaction callback.
  jsrt::ObjectId Returned = 0;
  /// The derived promise that adopts it.
  jsrt::ObjectId Derived = 0;
};

/// Fired on tracked property reads/writes (Runtime::getProperty /
/// setProperty). Feeds the data-flow race analysis (the paper's §IX
/// ongoing-research extension).
struct PropertyAccessEvent {
  /// Identity of the accessed object.
  uintptr_t Obj = 0;
  std::string Key;
  bool IsWrite = false;
  SourceLocation Loc;
};

/// Fired when a Throw completion escapes a top-level dispatch.
struct UncaughtErrorEvent {
  const jsrt::Value &Error;
  SourceLocation Loc;
  uint64_t TickSeq = 0;
};

/// Fired when a tracked promise or emitter object is no longer reachable
/// by the program (the runtime's weak registry observed its destruction).
/// This is the definitive end of the object's story: no further listener
/// can fire, no reaction can be added, no settle can land — analyses can
/// finalize per-object verdicts and the builder can release the pending
/// registrations bound to it. Fired in creation order, at deterministic
/// loop points (once per loop iteration and before loop end), so recorded
/// traces replay identically.
struct ObjectReleaseEvent {
  jsrt::ObjectId Obj = 0;
  bool IsPromise = false;
};

/// Fired when the event loop finishes (normally, by stop(), or by
/// exhausting the tick budget — the latter indicates starvation, e.g. the
/// recursive-nextTick bug of Fig. 1).
struct LoopEndEvent {
  uint64_t Ticks = 0;
  bool TickBudgetExhausted = false;
};

/// Fired at the top of every event-loop turn — a safe point between
/// dispatches, never mid-event. Not part of the recorded trace (the Async
/// Graph derives ticks from Enter records); transports use it for
/// deferred maintenance on the loop thread: the async pipeline flushes
/// its producer-side record chunk and re-evaluates its overhead-budget
/// sampling decision here.
struct TickBoundaryEvent {
  /// Dispatch tick sequence at the boundary.
  uint64_t TickSeq = 0;
};

/// Base class for dynamic analyses (AsyncG, the baselines, counters).
/// All hooks default to no-ops; override what you need.
class AnalysisBase {
public:
  virtual ~AnalysisBase();

  /// Short analysis name for reports.
  virtual const char *analysisName() const { return "analysis"; }

  virtual void onFunctionEnter(const FunctionEnterEvent &E) { (void)E; }
  virtual void onFunctionExit(const FunctionExitEvent &E) { (void)E; }
  virtual void onApiCall(const ApiCallEvent &E) { (void)E; }
  virtual void onObjectCreate(const ObjectCreateEvent &E) { (void)E; }
  virtual void onReactionResult(const ReactionResultEvent &E) { (void)E; }
  virtual void onPromiseLink(const PromiseLinkEvent &E) { (void)E; }
  virtual void onObjectRelease(const ObjectReleaseEvent &E) { (void)E; }
  virtual void onPropertyAccess(const PropertyAccessEvent &E) { (void)E; }
  virtual void onUncaughtError(const UncaughtErrorEvent &E) { (void)E; }
  virtual void onLoopEnd(const LoopEndEvent &E) { (void)E; }
  virtual void onTickBoundary(const TickBoundaryEvent &E) { (void)E; }

  /// Fired by batching transports (the async pipeline between ring drains,
  /// the trace replayer between file chunks) on the thread that runs the
  /// analysis: a safe point for deferred maintenance such as Async Graph
  /// region retirement. Never fired mid-event.
  virtual void onBatchBoundary() {}
};

/// Registry of attached analyses. The runtime owns one; hook dispatch is a
/// plain loop, so an empty registry costs one branch per hook site.
///
/// Attach and detach are safe from inside a hook callback (an analysis may
/// detach itself at runtime): firing iterates by index over the size
/// captured at loop start, detach during a fire nulls the slot instead of
/// erasing it, and the vector is compacted when the outermost fire
/// returns. Analyses attached mid-fire are not invoked for the event that
/// was already in flight.
class HookRegistry {
public:
  /// Attaches an analysis (not owned). May be called while running.
  void attach(AnalysisBase *A) {
    assert(A && "attaching null analysis");
    Analyses.push_back(A);
    ++Live;
  }

  /// Detaches a previously attached analysis. Safe while running, including
  /// from inside a hook callback of a fire* loop.
  void detach(AnalysisBase *A) {
    for (AnalysisBase *&Slot : Analyses) {
      if (Slot != A)
        continue;
      Slot = nullptr;
      --Live;
      NeedsCompact = true;
    }
    if (FireDepth == 0)
      compact();
  }

  bool empty() const { return Live == 0; }
  size_t size() const { return Live; }

  void fireFunctionEnter(const FunctionEnterEvent &E) {
    fire([&E](AnalysisBase *A) { A->onFunctionEnter(E); });
  }
  void fireFunctionExit(const FunctionExitEvent &E) {
    fire([&E](AnalysisBase *A) { A->onFunctionExit(E); });
  }
  void fireApiCall(const ApiCallEvent &E) {
    fire([&E](AnalysisBase *A) { A->onApiCall(E); });
  }
  void fireObjectCreate(const ObjectCreateEvent &E) {
    fire([&E](AnalysisBase *A) { A->onObjectCreate(E); });
  }
  void fireReactionResult(const ReactionResultEvent &E) {
    fire([&E](AnalysisBase *A) { A->onReactionResult(E); });
  }
  void firePromiseLink(const PromiseLinkEvent &E) {
    fire([&E](AnalysisBase *A) { A->onPromiseLink(E); });
  }
  void fireObjectRelease(const ObjectReleaseEvent &E) {
    fire([&E](AnalysisBase *A) { A->onObjectRelease(E); });
  }
  void firePropertyAccess(const PropertyAccessEvent &E) {
    fire([&E](AnalysisBase *A) { A->onPropertyAccess(E); });
  }
  void fireUncaughtError(const UncaughtErrorEvent &E) {
    fire([&E](AnalysisBase *A) { A->onUncaughtError(E); });
  }
  void fireLoopEnd(const LoopEndEvent &E) {
    fire([&E](AnalysisBase *A) { A->onLoopEnd(E); });
  }
  void fireTickBoundary(const TickBoundaryEvent &E) {
    fire([&E](AnalysisBase *A) { A->onTickBoundary(E); });
  }

private:
  template <typename Fn> void fire(Fn &&Invoke) {
    ++FireDepth;
    // Index-based over the size at loop start: detach nulls slots (checked
    // below) and attach appends past N (skipped for this event).
    size_t N = Analyses.size();
    for (size_t I = 0; I != N; ++I)
      if (AnalysisBase *A = Analyses[I])
        Invoke(A);
    if (--FireDepth == 0 && NeedsCompact)
      compact();
  }

  void compact() {
    Analyses.erase(std::remove(Analyses.begin(), Analyses.end(), nullptr),
                   Analyses.end());
    NeedsCompact = false;
    assert(Analyses.size() == Live && "live count out of sync");
  }

  std::vector<AnalysisBase *> Analyses;
  size_t Live = 0;
  size_t FireDepth = 0;
  bool NeedsCompact = false;
};

} // namespace instr
} // namespace asyncg

#endif // ASYNCG_INSTR_HOOKS_H
