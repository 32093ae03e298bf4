//===- Validator.h - CE-to-CR context validation ----------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 3's context validator: decides whether a pending callback
/// registration matches the current execution context — the tick's phase
/// type, the trigger (emitter event / promise action) bound to the call,
/// and the registration's target phase.
///
/// The runtime's dispatch metadata also carries the registration id, which
/// makes the mapping exact; the builder uses the contextual validation as
/// the paper describes and asserts agreement with the id (the unit tests
/// exercise the contextual path directly).
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_AG_VALIDATOR_H
#define ASYNCG_AG_VALIDATOR_H

#include "ag/Warning.h"
#include "jsrt/ApiKind.h"
#include "jsrt/Dispatch.h"
#include "jsrt/Ids.h"
#include "jsrt/PhaseKind.h"
#include "support/SymbolTable.h"

namespace asyncg {
namespace ag {

/// One pending callback registration (an entry of the paper's
/// L_pending^cb lists).
struct PendingReg {
  /// The CR node this registration produced.
  NodeId Cr = InvalidNode;
  jsrt::ScheduleId Sched = 0;
  jsrt::ApiKind Api = jsrt::ApiKind::None;
  /// Phase the callback is expected to execute in.
  jsrt::PhaseKind TargetPhase = jsrt::PhaseKind::Main;
  /// Scheduled exactly once (then/setTimeout) vs possibly many times
  /// (on/setInterval) — Algorithm 3's scheduleOnce().
  bool Once = true;
  /// Bound emitter/promise object; 0 when none.
  jsrt::ObjectId BoundObj = 0;
  /// Emitter event name for listener registrations (interned; equality
  /// against the trigger's event is an integer compare).
  Symbol Event;
  /// The builder's region slot for the CR node's tick — the region this
  /// registration pins while it is pending (epoch retirement accounting).
  uint32_t Region = 0;
};

/// The context validator (Algorithm 3, line 3).
class ContextValidator {
public:
  /// Contextual match: does \p Reg explain an execution dispatched with
  /// \p D in a tick of phase \p TickPhase?
  static bool contextMatches(const PendingReg &Reg,
                             const jsrt::DispatchInfo &D,
                             jsrt::PhaseKind TickPhase) {
    using jsrt::ApiKind;
    using jsrt::PhaseKind;
    using jsrt::TriggerInfo;

    // Emitter listeners execute under an emit trigger on the same object
    // and event, in whatever phase the emit fires.
    if (jsrt::isEmitterRegistrationApi(Reg.Api) ||
        (Reg.Api == ApiKind::NetCreateServer ||
         Reg.Api == ApiKind::HttpCreateServer))
      return D.Trigger.K == TriggerInfo::Kind::Emitter &&
             D.Trigger.Obj == Reg.BoundObj && D.Trigger.Event == Reg.Event;

    // Promise executors run instantly in the registering tick.
    if (Reg.Api == ApiKind::PromiseCtor)
      return TickPhase == Reg.TargetPhase && D.Trigger.isNone();

    // Promise reactions (then/catch/finally/await and internal adoption
    // reactions) run in promise micro-ticks under a settle trigger on the
    // bound promise.
    if (Reg.TargetPhase == PhaseKind::PromiseMicro && Reg.BoundObj != 0)
      return TickPhase == PhaseKind::PromiseMicro &&
             D.Trigger.K == TriggerInfo::Kind::Promise &&
             D.Trigger.Obj == Reg.BoundObj;

    // Self-scheduling and external registrations execute as top-level
    // callbacks of their target phase.
    return TickPhase == Reg.TargetPhase;
  }

  /// Full validity: the registration id must agree (exact mapping), and
  /// when it does, the context must explain it too.
  static bool isValid(const PendingReg &Reg, const jsrt::DispatchInfo &D,
                      jsrt::PhaseKind TickPhase) {
    if (D.Sched != 0)
      return D.Sched == Reg.Sched;
    return contextMatches(Reg, D, TickPhase);
  }
};

} // namespace ag
} // namespace asyncg

#endif // ASYNCG_AG_VALIDATOR_H
