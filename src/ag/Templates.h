//===- Templates.h - Per-API registration templates -------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 2's `getAsyncTemplate`: classifies every asynchronous API and
/// carries the information the builder needs to process a call — whether it
/// registers callbacks, triggers previously registered ones, relates
/// objects (combinators), or is bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_AG_TEMPLATES_H
#define ASYNCG_AG_TEMPLATES_H

#include "instr/Hooks.h"
#include "jsrt/ApiKind.h"
#include "support/SymbolTable.h"

#include <array>

namespace asyncg {
namespace ag {

/// How the builder processes an API call.
enum class TemplateKind {
  /// Registers one or more callbacks: produces a CR node and pending-list
  /// entries (nextTick, timers, immediates, then/catch, on/once, I/O APIs).
  Registration,
  /// Explicitly triggers registered callbacks: produces a CT node
  /// (emit, resolve, reject).
  Trigger,
  /// Relates promise objects without registering user callbacks
  /// (Promise.all/race/allSettled/any): produces relation edges.
  Combinator,
  /// No node; forwarded to observers for bookkeeping analyses
  /// (removeListener, removeAllListeners, listen).
  Misc,
};

/// Template record for one API kind.
struct ApiTemplate {
  TemplateKind Kind = TemplateKind::Misc;
  /// External scheduling (OS events) rather than self-scheduling (§II-A).
  bool External = false;
};

/// Returns the template for \p Api (Algorithm 2 line 3).
inline ApiTemplate getAsyncTemplate(jsrt::ApiKind Api) {
  using jsrt::ApiKind;
  switch (Api) {
  case ApiKind::NextTick:
  case ApiKind::QueueMicrotask:
  case ApiKind::SetTimeout:
  case ApiKind::SetInterval:
  case ApiKind::SetImmediate:
  case ApiKind::PromiseCtor:
  case ApiKind::PromiseThen:
  case ApiKind::PromiseCatch:
  case ApiKind::PromiseFinally:
  case ApiKind::Await:
  case ApiKind::EmitterOn:
  case ApiKind::EmitterOnce:
  case ApiKind::EmitterPrepend:
    return {TemplateKind::Registration, false};

  case ApiKind::FsReadFile:
  case ApiKind::FsWriteFile:
  case ApiKind::NetCreateServer:
  case ApiKind::NetConnect:
  case ApiKind::HttpCreateServer:
  case ApiKind::HttpRequest:
  case ApiKind::DbQuery:
    return {TemplateKind::Registration, true};

  case ApiKind::EmitterEmit:
  case ApiKind::PromiseResolve:
  case ApiKind::PromiseReject:
    return {TemplateKind::Trigger, false};

  // Cross-loop send: a CT whose execution is dispatched by another loop
  // (ClusterRecv never reaches onApiCall — it arrives as the delivery
  // tick's DispatchInfo — but the switch must stay exhaustive).
  case ApiKind::ClusterSend:
    return {TemplateKind::Trigger, true};
  case ApiKind::ClusterRecv:
    return {TemplateKind::Misc, true};

  case ApiKind::PromiseAll:
  case ApiKind::PromiseRace:
  case ApiKind::PromiseAllSettled:
  case ApiKind::PromiseAny:
    return {TemplateKind::Combinator, false};

  case ApiKind::EmitterRemoveListener:
  case ApiKind::EmitterRemoveAll:
  case ApiKind::NetListen:
    return {TemplateKind::Misc, false};

  case ApiKind::Internal:
    // Internal registrations (adoption reactions, close callbacks) carry
    // callbacks; internal trigger-less calls are bookkeeping.
    return {TemplateKind::Registration, false};

  case ApiKind::None:
    return {TemplateKind::Misc, false};
  }
  return {TemplateKind::Misc, false};
}

/// Interned apiKindName(), computed once per kind.
inline Symbol apiKindSymbol(jsrt::ApiKind Api) {
  static const auto Names = [] {
    std::array<Symbol, static_cast<size_t>(jsrt::ApiKind::ClusterRecv) + 1> A;
    for (size_t I = 0; I != A.size(); ++I)
      A[I] = Symbol(jsrt::apiKindName(static_cast<jsrt::ApiKind>(I)));
    return A;
  }();
  return Names[static_cast<size_t>(Api)];
}

} // namespace ag
} // namespace asyncg

#endif // ASYNCG_AG_TEMPLATES_H
