//===- Runtime.cpp - The jsrt runtime and event loop -------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "jsrt/Runtime.h"

#include "support/Format.h"

#ifdef __linux__
#include "sim/EpollKernel.h"
#include "sim/EpollNetwork.h"
#include "sim/UringKernel.h"
#include "sim/UringNetwork.h"
#endif

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <set>

using namespace asyncg;
using namespace asyncg::jsrt;

Runtime::Runtime(RuntimeConfig Config) : Config(Config) {
  if (Config.Backend == sim::KernelBackend::Epoll) {
#ifdef __linux__
    auto EK = std::make_unique<sim::EpollKernel>(TheClock);
    if (!EK->valid()) {
      std::fprintf(stderr, "jsrt: cannot create epoll kernel (epoll_create1 "
                           "failed)\n");
      std::abort();
    }
    TheNetwork = std::make_unique<sim::EpollNetwork>(
        *EK, Config.NetLatencyUs, Config.Wire, Config.ListenBacklog);
    TheKernel = std::move(EK);
#else
    // CLIs gate on sim::kernelBackendAvailable and report cleanly; an
    // embedder reaching here on a non-Linux build is a programming error.
    std::fprintf(stderr,
                 "jsrt: epoll kernel backend requested on a non-Linux "
                 "build (check sim::kernelBackendAvailable first)\n");
    std::abort();
#endif
  } else if (Config.Backend == sim::KernelBackend::Uring) {
#ifdef __linux__
    auto UK = std::make_unique<sim::UringKernel>(TheClock);
    if (!UK->valid()) {
      std::string Why;
      sim::kernelBackendAvailable(sim::KernelBackend::Uring, &Why);
      std::fprintf(stderr, "jsrt: cannot create io_uring kernel (%s)\n",
                   Why.c_str());
      std::abort();
    }
    TheNetwork = std::make_unique<sim::UringNetwork>(
        *UK, Config.NetLatencyUs, Config.Wire, Config.ListenBacklog);
    TheKernel = std::move(UK);
#else
    std::fprintf(stderr,
                 "jsrt: io_uring kernel backend requested on a non-Linux "
                 "build (check sim::kernelBackendAvailable first)\n");
    std::abort();
#endif
  } else {
    TheKernel = std::make_unique<sim::Kernel>(TheClock);
    TheNetwork =
        std::make_unique<sim::Network>(*TheKernel, Config.NetLatencyUs);
  }
  if (Config.Faults.any()) {
    Injector = std::make_unique<sim::FaultInjector>(Config.Faults,
                                                    Config.FaultSeed);
#ifdef __linux__
    if (auto *RN = dynamic_cast<sim::RealNetwork *>(TheNetwork.get()))
      RN->setFaultInjector(Injector.get());
#endif
    // Wrap after the network is built: the network keeps its concrete
    // reference to the real backend (delivery submits bypass jitter), while
    // the loop and the file system see the decorated surface.
    TheKernel =
        std::make_unique<sim::FaultKernel>(std::move(TheKernel), *Injector);
  }
  TheFileSystem =
      std::make_unique<sim::FileSystem>(*TheKernel, Config.FsLatencyUs);
  assert(Config.Shard <= MaxShardId && "shard number out of range");
  // Namespace every id generator into this loop's shard (Ids.h). Shard 0's
  // base is 0, so single-loop runtimes mint exactly the ids they always did.
  uint64_t Base = shardIdBase(Config.Shard);
  LastFunctionId = Base;
  LastObjectId = Base;
  LastScheduleId = Base;
  LastTriggerId = Base;
  LastTimerId = Base;
  LastImmediateId = Base;
}

Runtime::~Runtime() = default;

sim::Kernel &Runtime::realKernel() {
  if (auto *FK = dynamic_cast<sim::FaultKernel *>(TheKernel.get()))
    return FK->inner();
  return *TheKernel;
}

LoopPort::~LoopPort() = default;

//===----------------------------------------------------------------------===//
// Function factories and invocation
//===----------------------------------------------------------------------===//

Function Runtime::makeFunction(std::string Name, SourceLocation Loc,
                               FunctionBody Body) {
  auto Data = std::make_shared<FunctionData>();
  Data->Id = ++LastFunctionId;
  Data->Name = std::move(Name);
  Data->Loc = std::move(Loc);
  Data->IsBuiltin = false;
  Data->Body = std::move(Body);
  return Function(std::move(Data));
}

Function Runtime::makeBuiltin(std::string Name, FunctionBody Body) {
  auto Data = std::make_shared<FunctionData>();
  Data->Id = ++LastFunctionId;
  Data->Name = std::move(Name);
  Data->Loc = SourceLocation::internal();
  Data->IsBuiltin = true;
  Data->Body = std::move(Body);
  return Function(std::move(Data));
}

Completion Runtime::invoke(const Function &F, const CallArgs &Args,
                           const DispatchInfo &D) {
  assert(F.isValid() && "invoking an invalid function");
  assert(F.ref()->Body && "function has no body");
  bool Instrumented = !Hooks.empty();
  if (Instrumented)
    Hooks.fireFunctionEnter(instr::FunctionEnterEvent{F, Args, D});
  ++CallDepth;
  Completion Result = F.ref()->Body(*this, Args);
  --CallDepth;
  if (Instrumented)
    Hooks.fireFunctionExit(instr::FunctionExitEvent{F, Result, D});
  return Result;
}

Completion Runtime::call(const Function &F, std::vector<Value> Args,
                         Value ThisVal) {
  DispatchInfo D;
  D.Phase = CurPhase;
  D.TopLevel = false;
  D.TickSeq = TickSeq;
  return invoke(F, CallArgs(std::move(ThisVal), std::move(Args)), D);
}

void Runtime::reportUncaught(Value Error, SourceLocation Loc) {
  Uncaught.push_back(UncaughtError{Error, Loc, TickSeq});
  if (!Hooks.empty())
    Hooks.fireUncaughtError(
        instr::UncaughtErrorEvent{Uncaught.back().Error, Loc, TickSeq});
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

bool Runtime::takeTickBudget() {
  if (Config.MaxTicks != 0 && TickSeq >= Config.MaxTicks) {
    BudgetExhausted = true;
    StopRequested = true;
    return false;
  }
  return true;
}

void Runtime::dispatchTask(ScheduledTask &T, PhaseKind Phase) {
  if (T.Cancelled)
    return;
  if (!takeTickBudget())
    return;
  assert(CallDepth == 0 && "top-level dispatch while a callback is running");
  CurPhase = Phase;
  ++TickSeq;
  Stats.add("jsrt.ticks");

  DispatchInfo D;
  D.Phase = Phase;
  D.TopLevel = true;
  D.Sched = T.Sched;
  D.Api = T.Api;
  D.Trigger = T.Trigger;
  D.TickSeq = TickSeq;

  Completion C = invoke(T.Fn, CallArgs(std::move(T.Args)), D);
  // Executing the callback consumed (virtual) time, and any dispatched
  // work re-arms the 'beforeExit' emission. Real-time kernels advance the
  // clock from the OS clock instead; charging a virtual tick cost on top
  // would run the clock ahead of wall time and fire timers early.
  if (!TheKernel->isRealTime())
    TheClock.advanceBy(Config.TickCostUs);
  BeforeExitEmitted = false;
  if (T.OnComplete) {
    T.OnComplete(*this, std::move(C));
    return;
  }
  if (C.isThrow())
    reportUncaught(C.takeValue(), T.Fn.loc());
}

void Runtime::drainMicrotasks() {
  // nextTick batches have priority over promise batches, and each can
  // schedule the other (paper Fig. 2(b)).
  while (!StopRequested) {
    if (!NextTickQueue.empty()) {
      ScheduledTask T = std::move(NextTickQueue.front());
      NextTickQueue.pop_front();
      dispatchTask(T, PhaseKind::NextTick);
      continue;
    }
    if (!PromiseQueue.empty()) {
      ScheduledTask T = std::move(PromiseQueue.front());
      PromiseQueue.pop_front();
      dispatchTask(T, PhaseKind::PromiseMicro);
      continue;
    }
    break;
  }
}

bool Runtime::hasMacroWork() const {
  if (!Timers.empty() || TheKernel->hasPending() || !CloseQueue.empty())
    return true;
  for (const ScheduledTask &T : ImmediateQueue)
    if (!T.Cancelled)
      return true;
  return false;
}

bool Runtime::runTimersPhase() {
  std::vector<TimerEntry> Due = Timers.takeDue(TheClock.now());
  bool Ran = false;
  for (TimerEntry &E : Due) {
    if (StopRequested) {
      // Put unprocessed timers back so a resumed loop can run them.
      Timers.add(std::move(E));
      continue;
    }
    ScheduledTask T;
    T.Fn = E.Fn;
    T.Args = E.Args;
    T.Sched = E.Sched;
    T.Api = E.Api;
    dispatchTask(T, PhaseKind::Timers);
    Ran = true;
    drainMicrotasks();
    if (E.IntervalUs != 0 && !CancelledTimers.count(E.Id)) {
      E.Due = TheClock.now() + E.IntervalUs;
      Timers.add(E);
    }
    CancelledTimers.erase(E.Id);
  }
  return Ran;
}

bool Runtime::runIoPhase() {
  std::vector<std::function<void()>> Due = TheKernel->takeDue();
  bool Ran = false;
  for (auto &Action : Due) {
    if (StopRequested)
      break;
    Action();
    Ran = true;
    drainMicrotasks();
  }
  return Ran;
}

bool Runtime::runCheckPhase() {
  // Only immediates queued before this phase run now; immediates scheduled
  // inside an immediate callback run in the next loop iteration, letting
  // I/O interleave (paper Fig. 3(b)).
  size_t Count = ImmediateQueue.size();
  bool Ran = false;
  for (size_t I = 0; I != Count && !StopRequested; ++I) {
    ScheduledTask T = std::move(ImmediateQueue.front());
    ImmediateQueue.pop_front();
    if (T.Cancelled)
      continue;
    dispatchTask(T, PhaseKind::Check);
    Ran = true;
    drainMicrotasks();
  }
  return Ran;
}

bool Runtime::runClosePhase() {
  size_t Count = CloseQueue.size();
  bool Ran = false;
  for (size_t I = 0; I != Count && !StopRequested; ++I) {
    ScheduledTask T = std::move(CloseQueue.front());
    CloseQueue.pop_front();
    dispatchTask(T, PhaseKind::Close);
    Ran = true;
    drainMicrotasks();
  }
  return Ran;
}

void Runtime::sweepReleasedObjects() {
  // Stable two-finger compaction in creation order. Firing is pure
  // observation: weak_ptr::expired() reads the control block, nothing is
  // destroyed here, so the vectors stay consistent under the loop.
  size_t W = 0;
  for (size_t I = 0; I != AllPromises.size(); ++I) {
    if (!AllPromises[I].Ref.expired()) {
      if (W != I)
        AllPromises[W] = std::move(AllPromises[I]);
      ++W;
      continue;
    }
    if (!Hooks.empty()) {
      instr::ObjectReleaseEvent E;
      E.Obj = AllPromises[I].Id;
      E.IsPromise = true;
      Hooks.fireObjectRelease(E);
    }
  }
  AllPromises.resize(W);

  W = 0;
  for (size_t I = 0; I != AllEmitters.size(); ++I) {
    if (!AllEmitters[I].Ref.expired()) {
      if (W != I)
        AllEmitters[W] = std::move(AllEmitters[I]);
      ++W;
      continue;
    }
    if (!Hooks.empty()) {
      instr::ObjectReleaseEvent E;
      E.Obj = AllEmitters[I].Id;
      E.IsPromise = false;
      Hooks.fireObjectRelease(E);
    }
  }
  AllEmitters.resize(W);
}

void Runtime::runLoop() {
  while (!StopRequested) {
    // Turn boundary: a safe point between dispatches. Transports flush
    // producer-side batches and re-evaluate sampling budgets here.
    if (!Hooks.empty())
      Hooks.fireTickBoundary(instr::TickBoundaryEvent{TickSeq});
    sweepReleasedObjects();
    drainMicrotasks();
    if (StopRequested)
      break;
    // Cluster mode: deliver cross-loop messages as top-level I/O ticks
    // before deciding whether the loop has work.
    if (Port && Port->pump(*this)) {
      drainMicrotasks();
      if (StopRequested)
        break;
    }
    if (!hasMacroWork()) {
      // The loop ran dry locally. In cluster mode, park until another loop
      // posts work or the whole cluster quiesces; only a quiesced cluster
      // proceeds to 'beforeExit' / exit.
      if (Port && Port->waitForWork(*this))
        continue;
      // Give 'beforeExit' listeners a chance to schedule more work (Node
      // semantics), once per drain.
      if (tryBeforeExit())
        continue;
      break;
    }

    // If nothing is due yet, wait for the next deadline: the sim kernel
    // advances virtual time in one jump, the epoll kernel blocks in
    // epoll_wait (both model libuv blocking in poll with a timeout).
    sim::SimTime Now = TheClock.now();
    sim::SimTime TimerNext = Timers.nextDeadline();
    sim::SimTime KernelNext = TheKernel->nextDeadline();
    bool ImmediatePending = false;
    for (const ScheduledTask &T : ImmediateQueue)
      if (!T.Cancelled) {
        ImmediatePending = true;
        break;
      }
    bool AnythingDueNow = (TimerNext != sim::NoDeadline && TimerNext <= Now) ||
                          (KernelNext != sim::NoDeadline && KernelNext <= Now) ||
                          ImmediatePending || !CloseQueue.empty();
    if (!AnythingDueNow) {
      sim::SimTime Next = std::min(TimerNext, KernelNext);
      if (!TheKernel->waitUntil(Next)) {
        // Nothing local can ever become due; cross-loop work still can.
        if (Port && Port->waitForWork(*this))
          continue;
        break;
      }
    }

    runTimersPhase();
    if (StopRequested)
      break;
    runIoPhase();
    if (StopRequested)
      break;
    runCheckPhase();
    if (StopRequested)
      break;
    runClosePhase();
  }

  sweepReleasedObjects();
  if (!Hooks.empty())
    Hooks.fireLoopEnd(instr::LoopEndEvent{TickSeq, BudgetExhausted});
}

void Runtime::main(const Function &MainFn) {
  assert(TickSeq == 0 && "main() must be the first dispatch");
  ScheduledTask T;
  T.Fn = MainFn;
  dispatchTask(T, PhaseKind::Main);
  drainMicrotasks();
  runLoop();
}

//===----------------------------------------------------------------------===//
// Self-scheduling APIs
//===----------------------------------------------------------------------===//

ScheduleId Runtime::nextTick(SourceLocation Loc, const Function &Fn,
                             std::vector<Value> Args) {
  assert(Fn.isValid() && "nextTick requires a callback");
  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = ApiKind::NextTick;
    E.Loc = Loc;
    E.Sched = S;
    E.Callbacks.push_back(Fn);
    E.TargetPhase = PhaseKind::NextTick;
    E.Once = true;
    Hooks.fireApiCall(E);
  }
  ScheduledTask T;
  T.Fn = Fn;
  T.Args = std::move(Args);
  T.Sched = S;
  T.Api = ApiKind::NextTick;
  NextTickQueue.push_back(std::move(T));
  return S;
}

TimerHandle Runtime::setTimeout(SourceLocation Loc, const Function &Fn,
                                double Ms, std::vector<Value> Args) {
  assert(Fn.isValid() && "setTimeout requires a callback");
  double Clamped = Ms;
  if (Config.ClampZeroTimeout && Clamped < 1.0)
    Clamped = 1.0;
  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = ApiKind::SetTimeout;
    E.Loc = Loc;
    E.Sched = S;
    E.Callbacks.push_back(Fn);
    E.TargetPhase = PhaseKind::Timers;
    E.Once = true;
    E.TimeoutMs = Ms;
    Hooks.fireApiCall(E);
  }
  TimerEntry T;
  T.Id = ++LastTimerId;
  T.Seq = ++LastTimerSeq;
  T.Due = TheClock.now() + static_cast<sim::SimTime>(Clamped * 1000.0);
  T.IntervalUs = 0;
  T.TimeoutMs = Ms;
  T.Fn = Fn;
  T.Args = std::move(Args);
  T.Sched = S;
  T.Api = ApiKind::SetTimeout;
  T.Loc = std::move(Loc);
  Timers.add(std::move(T));
  return TimerHandle{LastTimerId};
}

TimerHandle Runtime::setInterval(SourceLocation Loc, const Function &Fn,
                                 double Ms, std::vector<Value> Args) {
  assert(Fn.isValid() && "setInterval requires a callback");
  double Clamped = Ms;
  if (Config.ClampZeroTimeout && Clamped < 1.0)
    Clamped = 1.0;
  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = ApiKind::SetInterval;
    E.Loc = Loc;
    E.Sched = S;
    E.Callbacks.push_back(Fn);
    E.TargetPhase = PhaseKind::Timers;
    E.Once = false;
    E.TimeoutMs = Ms;
    Hooks.fireApiCall(E);
  }
  sim::SimTime IntervalUs = static_cast<sim::SimTime>(Clamped * 1000.0);
  TimerEntry T;
  T.Id = ++LastTimerId;
  T.Seq = ++LastTimerSeq;
  T.Due = TheClock.now() + IntervalUs;
  T.IntervalUs = IntervalUs;
  T.TimeoutMs = Ms;
  T.Fn = Fn;
  T.Args = std::move(Args);
  T.Sched = S;
  T.Api = ApiKind::SetInterval;
  T.Loc = std::move(Loc);
  Timers.add(std::move(T));
  return TimerHandle{LastTimerId};
}

bool Runtime::clearTimer(TimerHandle H) {
  if (!H.isValid())
    return false;
  if (Timers.cancel(H.Id))
    return true;
  // The timer may be the interval currently running: suppress its re-add.
  CancelledTimers.insert(H.Id);
  return false;
}

ImmediateHandle Runtime::setImmediate(SourceLocation Loc, const Function &Fn,
                                      std::vector<Value> Args) {
  assert(Fn.isValid() && "setImmediate requires a callback");
  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = ApiKind::SetImmediate;
    E.Loc = Loc;
    E.Sched = S;
    E.Callbacks.push_back(Fn);
    E.TargetPhase = PhaseKind::Check;
    E.Once = true;
    Hooks.fireApiCall(E);
  }
  ScheduledTask T;
  T.Fn = Fn;
  T.Args = std::move(Args);
  T.Sched = S;
  T.Api = ApiKind::SetImmediate;
  T.ImmediateId = ++LastImmediateId;
  ImmediateQueue.push_back(std::move(T));
  return ImmediateHandle{LastImmediateId};
}

bool Runtime::clearImmediate(ImmediateHandle H) {
  if (!H.isValid())
    return false;
  for (ScheduledTask &T : ImmediateQueue) {
    if (T.ImmediateId == H.Id && !T.Cancelled) {
      T.Cancelled = true;
      return true;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Promises
//===----------------------------------------------------------------------===//

PromiseRef Runtime::promiseNew(SourceLocation Loc, bool Internal,
                               ObjectId Parent, ApiKind Relation,
                               std::string Name) {
  auto P = std::make_shared<PromiseData>();
  P->Id = nextObjectId();
  P->CreatedAt = Loc;
  P->Internal = Internal;
  AllPromises.push_back(TrackedPromise{P->Id, P});
  if (!Hooks.empty()) {
    instr::ObjectCreateEvent E;
    E.Obj = P->Id;
    E.IsPromise = true;
    E.Name = std::move(Name);
    E.Loc = std::move(Loc);
    E.Internal = Internal;
    E.Parent = Parent;
    E.Relation = Relation;
    Hooks.fireObjectCreate(E);
  }
  return P;
}

PromiseRef Runtime::promiseBare(SourceLocation Loc, std::string Name) {
  return promiseNew(std::move(Loc), /*Internal=*/false, /*Parent=*/0,
                    ApiKind::None, std::move(Name));
}

PromiseRef Runtime::promiseCreate(SourceLocation Loc,
                                  const Function &Executor) {
  assert(Executor.isValid() && "promise executor required");
  PromiseRef P = promiseNew(Loc, /*Internal=*/false);

  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = ApiKind::PromiseCtor;
    E.Loc = Loc;
    E.Sched = S;
    E.Callbacks.push_back(Executor);
    E.TargetPhase = CurPhase; // Executors run instantly in the current tick.
    E.Once = true;
    E.BoundObj = P->Id;
    Hooks.fireApiCall(E);
  }

  // The resolve/reject functions handed to the executor report the
  // executor's own location as the action site (in the paper's Fig. 4 the
  // CT "resolve" appears at the executor's line).
  SourceLocation ActionLoc = Executor.loc();
  Function ResolveFn =
      makeBuiltin("resolve", [P, ActionLoc](Runtime &RT, const CallArgs &A) {
        RT.resolvePromise(ActionLoc, P, A.arg(0));
        return Completion::normal();
      });
  Function RejectFn =
      makeBuiltin("reject", [P, ActionLoc](Runtime &RT, const CallArgs &A) {
        RT.rejectPromise(ActionLoc, P, A.arg(0));
        return Completion::normal();
      });

  DispatchInfo D;
  D.Phase = CurPhase;
  D.TopLevel = false;
  D.Sched = S;
  D.Api = ApiKind::PromiseCtor;
  D.TickSeq = TickSeq;
  Completion C = invoke(
      Executor, CallArgs({ResolveFn.toValue(), RejectFn.toValue()}), D);
  if (C.isThrow())
    rejectPromise(Loc, P, C.takeValue());
  return P;
}

PromiseRef Runtime::promiseResolvedWith(SourceLocation Loc, Value V) {
  if (V.isPromise())
    return V.asPromise();
  PromiseRef P = promiseNew(Loc, /*Internal=*/false);
  resolvePromise(Loc, P, std::move(V));
  return P;
}

PromiseRef Runtime::promiseRejectedWith(SourceLocation Loc, Value V) {
  PromiseRef P = promiseNew(Loc, /*Internal=*/false);
  rejectPromise(Loc, P, std::move(V));
  return P;
}

PromiseRef Runtime::promiseReactionJob(SourceLocation Loc, ApiKind Via,
                                       const PromiseRef &P,
                                       const Function &OnF,
                                       const Function &OnR, bool WantDerived,
                                       bool Internal) {
  assert(P && "reaction on null promise");
  PromiseRef Derived;
  if (WantDerived)
    Derived = promiseNew(Loc, Internal, P->Id, Via);

  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = Via;
    E.Loc = Loc;
    E.Sched = S;
    if (OnF.isValid())
      E.Callbacks.push_back(OnF);
    if (OnR.isValid() && !(Via == ApiKind::Await && OnR.sameAs(OnF)))
      E.Callbacks.push_back(OnR);
    E.TargetPhase = PhaseKind::PromiseMicro;
    E.Once = true;
    E.BoundObj = P->Id;
    E.DerivedObj = Derived ? Derived->Id : 0;
    E.HasRejectHandler = OnR.isValid();
    E.Internal = Internal;
    Hooks.fireApiCall(E);
  }

  PromiseReaction R;
  R.OnFulfill = OnF;
  R.OnReject = OnR;
  R.Derived = Derived;
  R.Sched = S;
  R.Via = Via;
  P->Handled = true;
  if (P->isSettled())
    enqueueReaction(P, std::move(R), P->SettleTrigger);
  else
    P->Reactions.push_back(std::move(R));
  return Derived;
}

PromiseRef Runtime::promiseThen(SourceLocation Loc, const PromiseRef &P,
                                const Function &OnFulfill,
                                const Function &OnReject) {
  return promiseReactionJob(std::move(Loc), ApiKind::PromiseThen, P,
                            OnFulfill, OnReject, /*WantDerived=*/true,
                            /*Internal=*/false);
}

PromiseRef Runtime::promiseCatch(SourceLocation Loc, const PromiseRef &P,
                                 const Function &OnReject) {
  return promiseReactionJob(std::move(Loc), ApiKind::PromiseCatch, P,
                            Function(), OnReject, /*WantDerived=*/true,
                            /*Internal=*/false);
}

PromiseRef Runtime::promiseFinally(SourceLocation Loc, const PromiseRef &P,
                                   const Function &OnFinally) {
  // The handler is carried in the OnFulfill slot; enqueueReaction
  // special-cases Via == PromiseFinally.
  return promiseReactionJob(std::move(Loc), ApiKind::PromiseFinally, P,
                            OnFinally, Function(), /*WantDerived=*/true,
                            /*Internal=*/false);
}

void Runtime::enqueueReaction(const PromiseRef &Source, PromiseReaction R,
                              TriggerId Trig) {
  assert(Source->isSettled() && "enqueueing a reaction on a pending promise");
  bool IsReject = Source->State == PromiseState::Rejected;
  Value Result = Source->Result;

  ScheduledTask T;
  T.Sched = R.Sched;
  T.Api = R.Via;
  T.Trigger.K = TriggerInfo::Kind::Promise;
  T.Trigger.Id = Trig;
  T.Trigger.Obj = Source->Id;
  T.Trigger.IsReject = IsReject;

  PromiseRef Derived = R.Derived;
  ObjectId SourceId = Source->Id;
  ScheduleId Sched = R.Sched;

  if (R.Via == ApiKind::PromiseFinally) {
    T.Fn = R.OnFulfill; // The finally handler; receives no arguments.
    T.OnComplete = [Derived, Result, IsReject](Runtime &RT, Completion C) {
      if (!Derived)
        return;
      if (C.isThrow())
        RT.rejectPromiseInternal(Derived, C.takeValue());
      else if (IsReject)
        RT.rejectPromiseInternal(Derived, Result);
      else
        RT.resolvePromiseInternal(Derived, Result);
    };
    PromiseQueue.push_back(std::move(T));
    return;
  }

  if (R.Via == ApiKind::Await) {
    // Await continuations receive (value, isRejected) and do their own
    // settling of the async function's result promise.
    T.Fn = IsReject ? R.OnReject : R.OnFulfill;
    T.Args = {Result, Value::boolean(IsReject)};
    T.OnComplete = [](Runtime &RT, Completion C) {
      if (C.isThrow())
        RT.reportUncaught(C.takeValue(), SourceLocation::internal());
    };
    PromiseQueue.push_back(std::move(T));
    return;
  }

  Function Handler = IsReject ? R.OnReject : R.OnFulfill;
  if (!Handler.isValid()) {
    // Pass-through reaction: an internal micro-task forwards the result.
    if (!PassthroughFn.isValid())
      PassthroughFn = makeBuiltin(
          "(passthrough)", [](Runtime &, const CallArgs &) {
            return Completion::normal();
          });
    T.Fn = PassthroughFn;
    T.Api = ApiKind::Internal;
    T.OnComplete = [Derived, Result, IsReject](Runtime &RT, Completion) {
      if (!Derived)
        return;
      if (IsReject)
        RT.rejectPromiseInternal(Derived, Result);
      else
        RT.resolvePromiseInternal(Derived, Result);
    };
    PromiseQueue.push_back(std::move(T));
    return;
  }

  bool Internal = R.Via == ApiKind::Internal;
  T.Fn = Handler;
  T.Args = {Result};
  T.OnComplete = [Derived, SourceId, Sched, Internal](Runtime &RT,
                                                      Completion C) {
    if (C.isThrow()) {
      if (Derived)
        RT.rejectPromiseInternal(Derived, C.takeValue());
      else
        RT.reportUncaught(C.takeValue(), SourceLocation::internal());
      return;
    }
    Value RV = C.takeValue();
    if (!Derived)
      return;
    if (!Internal && !RT.hooks().empty()) {
      instr::ReactionResultEvent E;
      E.Source = SourceId;
      E.Derived = Derived->Id;
      E.Sched = Sched;
      E.ReturnedUndefined = RV.isUndefined();
      E.Threw = false;
      RT.hooks().fireReactionResult(E);
      if (RV.isPromise()) {
        instr::PromiseLinkEvent L;
        L.Returned = RV.asPromise()->Id;
        L.Derived = Derived->Id;
        RT.hooks().firePromiseLink(L);
      }
    }
    RT.resolvePromiseInternal(Derived, RV);
  };
  PromiseQueue.push_back(std::move(T));
}

void Runtime::resolveImpl(SourceLocation Loc, const PromiseRef &P, Value V,
                          bool Reject, bool Internal) {
  assert(P && "settling a null promise");
  TriggerId Trig = newTrigger();
  bool Effect = P->isPending() && !P->AlreadyResolved;
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = Reject ? ApiKind::PromiseReject : ApiKind::PromiseResolve;
    E.Loc = Loc;
    E.TargetPhase = PhaseKind::PromiseMicro;
    E.BoundObj = P->Id;
    E.Trigger = Trig;
    E.TriggerHadEffect = Effect;
    E.Internal = Internal;
    Hooks.fireApiCall(E);
  }
  if (!Effect)
    return;
  if (!Reject && V.isPromise() && V.asPromise() != P) {
    P->AlreadyResolved = true;
    adoptPromise(P, V.asPromise());
    return;
  }
  P->AlreadyResolved = true;
  settle(P, Reject, std::move(V), std::move(Loc), Internal, Trig);
}

void Runtime::settle(const PromiseRef &P, bool Reject, Value V,
                     SourceLocation Loc, bool Internal, TriggerId Trig) {
  (void)Loc;
  (void)Internal;
  P->State = Reject ? PromiseState::Rejected : PromiseState::Fulfilled;
  P->Result = std::move(V);
  P->SettleTrigger = Trig;
  std::vector<PromiseReaction> Reactions = std::move(P->Reactions);
  P->Reactions.clear();
  for (PromiseReaction &R : Reactions)
    enqueueReaction(P, std::move(R), Trig);
}

void Runtime::adoptPromise(const PromiseRef &Outer, const PromiseRef &Inner) {
  // Outer adopts Inner's eventual state: attach internal forwarding
  // reactions. Inner counts as handled.
  PromiseRef OuterRef = Outer;
  Function OnF = makeBuiltin("(adopt)", [OuterRef](Runtime &RT,
                                                   const CallArgs &A) {
    RT.settleFromAdoption(OuterRef, /*Reject=*/false, A.arg(0));
    return Completion::normal();
  });
  Function OnR = makeBuiltin("(adopt)", [OuterRef](Runtime &RT,
                                                   const CallArgs &A) {
    RT.settleFromAdoption(OuterRef, /*Reject=*/true, A.arg(0));
    return Completion::normal();
  });
  promiseReactionJob(SourceLocation::internal(), ApiKind::Internal, Inner,
                     OnF, OnR, /*WantDerived=*/false, /*Internal=*/true);
}

void Runtime::settleFromAdoption(const PromiseRef &P, bool Reject, Value V) {
  if (P->isSettled())
    return;
  if (!Reject && V.isPromise() && V.asPromise() != P) {
    adoptPromise(P, V.asPromise());
    return;
  }
  TriggerId Trig = newTrigger();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = Reject ? ApiKind::PromiseReject : ApiKind::PromiseResolve;
    E.Loc = SourceLocation::internal();
    E.TargetPhase = PhaseKind::PromiseMicro;
    E.BoundObj = P->Id;
    E.Trigger = Trig;
    E.TriggerHadEffect = true;
    E.Internal = true;
    Hooks.fireApiCall(E);
  }
  settle(P, Reject, std::move(V), SourceLocation::internal(),
         /*Internal=*/true, Trig);
}

void Runtime::resolvePromise(SourceLocation Loc, const PromiseRef &P,
                             Value V) {
  resolveImpl(std::move(Loc), P, std::move(V), /*Reject=*/false,
              /*Internal=*/false);
}

void Runtime::rejectPromise(SourceLocation Loc, const PromiseRef &P,
                            Value V) {
  resolveImpl(std::move(Loc), P, std::move(V), /*Reject=*/true,
              /*Internal=*/false);
}

void Runtime::resolvePromiseInternal(const PromiseRef &P, Value V) {
  resolveImpl(SourceLocation::internal(), P, std::move(V), /*Reject=*/false,
              /*Internal=*/true);
}

void Runtime::rejectPromiseInternal(const PromiseRef &P, Value V) {
  resolveImpl(SourceLocation::internal(), P, std::move(V), /*Reject=*/true,
              /*Internal=*/true);
}

ScheduleId
Runtime::promiseAwait(SourceLocation Loc, const PromiseRef &P,
                      std::string FnName,
                      std::function<void(Runtime &, Value, bool)> Resume) {
  assert(P && "awaiting a null promise");
  Function Cont = makeFunction(
      FnName + " (resumed)", Loc,
      [Resume = std::move(Resume)](Runtime &RT, const CallArgs &A) {
        Resume(RT, A.arg(0), A.arg(1).toBoolean());
        return Completion::normal();
      });
  promiseReactionJob(std::move(Loc), ApiKind::Await, P, Cont, Cont,
                     /*WantDerived=*/false, /*Internal=*/false);
  return LastScheduleId;
}

//===----------------------------------------------------------------------===//
// Promise combinators
//===----------------------------------------------------------------------===//

namespace {
/// Shared state for Promise.all / race / allSettled / any.
struct CombinatorState {
  PromiseRef Result;
  std::vector<Value> Values;
  size_t Remaining = 0;
  bool Done = false;
  size_t RejectionCount = 0;
};
} // namespace

PromiseRef Runtime::combinator(SourceLocation Loc, ApiKind Api,
                               std::vector<PromiseRef> Ps) {
  PromiseRef Result =
      promiseNew(Loc, /*Internal=*/false, /*Parent=*/0, Api,
                 apiKindName(Api));

  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = Api;
    E.Loc = Loc;
    E.Sched = S;
    E.TargetPhase = PhaseKind::PromiseMicro;
    E.Once = true;
    E.BoundObj = Result->Id;
    for (const PromiseRef &P : Ps)
      E.InputObjs.push_back(P->Id);
    Hooks.fireApiCall(E);
  }

  auto State = std::make_shared<CombinatorState>();
  State->Result = Result;
  State->Remaining = Ps.size();
  State->Values.resize(Ps.size());

  if (Ps.empty()) {
    switch (Api) {
    case ApiKind::PromiseAll:
    case ApiKind::PromiseAllSettled:
      resolvePromiseInternal(Result, ArrayData::make());
      break;
    case ApiKind::PromiseAny:
      rejectPromiseInternal(
          Result, Value::str("AggregateError: all promises were rejected"));
      break;
    case ApiKind::PromiseRace:
      break; // Forever pending, per spec.
    default:
      assert(false && "not a combinator");
    }
    return Result;
  }

  for (size_t I = 0, N = Ps.size(); I != N; ++I) {
    const PromiseRef &P = Ps[I];
    auto OnSettled = [State, Api, I, N](Runtime &RT, Value V, bool Rejected) {
      if (State->Done)
        return;
      switch (Api) {
      case ApiKind::PromiseAll:
        if (Rejected) {
          State->Done = true;
          RT.rejectPromiseInternal(State->Result, std::move(V));
          return;
        }
        State->Values[I] = std::move(V);
        if (--State->Remaining == 0) {
          State->Done = true;
          RT.resolvePromiseInternal(State->Result,
                                    ArrayData::make(State->Values));
        }
        return;
      case ApiKind::PromiseRace:
        State->Done = true;
        if (Rejected)
          RT.rejectPromiseInternal(State->Result, std::move(V));
        else
          RT.resolvePromiseInternal(State->Result, std::move(V));
        return;
      case ApiKind::PromiseAllSettled: {
        Value Entry = Object::make();
        Entry.asObject()->set("status", Value::str(Rejected ? "rejected"
                                                            : "fulfilled"));
        Entry.asObject()->set(Rejected ? "reason" : "value", std::move(V));
        State->Values[I] = std::move(Entry);
        if (--State->Remaining == 0) {
          State->Done = true;
          RT.resolvePromiseInternal(State->Result,
                                    ArrayData::make(State->Values));
        }
        return;
      }
      case ApiKind::PromiseAny:
        if (!Rejected) {
          State->Done = true;
          RT.resolvePromiseInternal(State->Result, std::move(V));
          return;
        }
        if (++State->RejectionCount == N) {
          State->Done = true;
          RT.rejectPromiseInternal(
              State->Result,
              Value::str("AggregateError: all promises were rejected"));
        }
        return;
      default:
        assert(false && "not a combinator");
      }
    };

    Function OnF = makeBuiltin(
        "(combine)", [OnSettled](Runtime &RT, const CallArgs &A) {
          OnSettled(RT, A.arg(0), /*Rejected=*/false);
          return Completion::normal();
        });
    Function OnR = makeBuiltin(
        "(combine)", [OnSettled](Runtime &RT, const CallArgs &A) {
          OnSettled(RT, A.arg(0), /*Rejected=*/true);
          return Completion::normal();
        });
    promiseReactionJob(SourceLocation::internal(), ApiKind::Internal, P, OnF,
                       OnR, /*WantDerived=*/false, /*Internal=*/true);
  }
  return Result;
}

PromiseRef Runtime::promiseAll(SourceLocation Loc,
                               std::vector<PromiseRef> Ps) {
  return combinator(std::move(Loc), ApiKind::PromiseAll, std::move(Ps));
}

PromiseRef Runtime::promiseRace(SourceLocation Loc,
                                std::vector<PromiseRef> Ps) {
  return combinator(std::move(Loc), ApiKind::PromiseRace, std::move(Ps));
}

PromiseRef Runtime::promiseAllSettled(SourceLocation Loc,
                                      std::vector<PromiseRef> Ps) {
  return combinator(std::move(Loc), ApiKind::PromiseAllSettled,
                    std::move(Ps));
}

PromiseRef Runtime::promiseAny(SourceLocation Loc,
                               std::vector<PromiseRef> Ps) {
  return combinator(std::move(Loc), ApiKind::PromiseAny, std::move(Ps));
}

std::vector<PromiseRef> Runtime::livePromises() const {
  std::vector<PromiseRef> Out;
  for (const auto &W : AllPromises)
    if (PromiseRef P = W.Ref.lock())
      Out.push_back(std::move(P));
  return Out;
}

std::vector<PromiseRef> Runtime::unhandledRejections() const {
  std::vector<PromiseRef> Out;
  for (const auto &W : AllPromises) {
    PromiseRef P = W.Ref.lock();
    if (P && P->State == PromiseState::Rejected && !P->Handled)
      Out.push_back(std::move(P));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Emitters
//===----------------------------------------------------------------------===//

EmitterRef Runtime::emitterCreate(SourceLocation Loc, std::string Name,
                                  bool Internal) {
  auto E = std::make_shared<EmitterData>();
  E->Id = nextObjectId();
  E->Name = Name;
  E->Internal = Internal;
  E->CreatedAt = Loc;
  AllEmitters.push_back(TrackedEmitter{E->Id, E});
  if (!Hooks.empty()) {
    instr::ObjectCreateEvent Ev;
    Ev.Obj = E->Id;
    Ev.IsPromise = false;
    Ev.Name = std::move(Name);
    Ev.Loc = std::move(Loc);
    Ev.Internal = Internal;
    Hooks.fireObjectCreate(Ev);
  }
  return E;
}

ScheduleId Runtime::addListener(SourceLocation Loc, ApiKind Api,
                                const EmitterRef &E, const std::string &Event,
                                const Function &Fn, bool Once, bool Prepend) {
  assert(E && "listener on null emitter");
  assert(Fn.isValid() && "listener function required");
  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &Ev = instr::scratchApiCall();
    Ev.Api = Api;
    Ev.Loc = Loc;
    Ev.Sched = S;
    Ev.Callbacks.push_back(Fn);
    Ev.TargetPhase = CurPhase; // Listeners run wherever emit() fires.
    Ev.Once = Once;
    Ev.BoundObj = E->Id;
    Ev.EventName = Event;
    Ev.Internal = Loc.isInternal();
    Hooks.fireApiCall(Ev);
  }
  Listener L;
  L.Fn = Fn;
  L.Once = Once;
  L.Sched = S;
  L.Via = Api;
  auto &List = E->Events[Event];
  if (Prepend)
    List.insert(List.begin(), std::move(L));
  else
    List.push_back(std::move(L));
  return S;
}

ScheduleId Runtime::emitterOn(SourceLocation Loc, const EmitterRef &E,
                              const std::string &Event, const Function &Fn) {
  return addListener(std::move(Loc), ApiKind::EmitterOn, E, Event, Fn,
                     /*Once=*/false, /*Prepend=*/false);
}

ScheduleId Runtime::emitterOnce(SourceLocation Loc, const EmitterRef &E,
                                const std::string &Event,
                                const Function &Fn) {
  return addListener(std::move(Loc), ApiKind::EmitterOnce, E, Event, Fn,
                     /*Once=*/true, /*Prepend=*/false);
}

ScheduleId Runtime::emitterPrepend(SourceLocation Loc, const EmitterRef &E,
                                   const std::string &Event,
                                   const Function &Fn) {
  return addListener(std::move(Loc), ApiKind::EmitterPrepend, E, Event, Fn,
                     /*Once=*/false, /*Prepend=*/true);
}

bool Runtime::emitterRemoveListener(SourceLocation Loc, const EmitterRef &E,
                                    const std::string &Event,
                                    const Function &Fn) {
  assert(E && "removeListener on null emitter");
  bool Removed = false;
  auto It = E->Events.find(Event);
  if (It != E->Events.end()) {
    auto &List = It->second;
    for (auto LI = List.begin(); LI != List.end(); ++LI) {
      if (LI->Fn.sameAs(Fn)) {
        List.erase(LI);
        Removed = true;
        break;
      }
    }
  }
  if (!Hooks.empty()) {
    instr::ApiCallEvent &Ev = instr::scratchApiCall();
    Ev.Api = ApiKind::EmitterRemoveListener;
    Ev.Loc = std::move(Loc);
    Ev.Callbacks.push_back(Fn);
    Ev.BoundObj = E->Id;
    Ev.EventName = Event;
    Ev.TriggerHadEffect = Removed;
    Hooks.fireApiCall(Ev);
  }
  return Removed;
}

void Runtime::emitterRemoveAll(SourceLocation Loc, const EmitterRef &E,
                               const std::string &Event) {
  assert(E && "removeAllListeners on null emitter");
  bool Removed = E->hasListeners(Event);
  E->Events.erase(Event);
  if (!Hooks.empty()) {
    instr::ApiCallEvent &Ev = instr::scratchApiCall();
    Ev.Api = ApiKind::EmitterRemoveAll;
    Ev.Loc = std::move(Loc);
    Ev.BoundObj = E->Id;
    Ev.EventName = Event;
    Ev.TriggerHadEffect = Removed;
    Hooks.fireApiCall(Ev);
  }
}

bool Runtime::emitterEmit(SourceLocation Loc, const EmitterRef &E,
                          const std::string &Event,
                          std::vector<Value> Args) {
  assert(E && "emit on null emitter");
  TriggerId Trig = newTrigger();

  // Snapshot the listener list: mutations during emission (add/remove
  // within a listener) affect only later emits, per Node semantics.
  std::vector<Listener> Snapshot;
  auto It = E->Events.find(Event);
  if (It != E->Events.end())
    Snapshot = It->second;
  bool HadListeners = !Snapshot.empty();

  if (!Hooks.empty()) {
    instr::ApiCallEvent &Ev = instr::scratchApiCall();
    Ev.Api = ApiKind::EmitterEmit;
    Ev.Loc = Loc;
    Ev.TargetPhase = CurPhase;
    Ev.BoundObj = E->Id;
    Ev.EventName = Event;
    Ev.Trigger = Trig;
    Ev.TriggerHadEffect = HadListeners;
    Ev.Internal = Loc.isInternal();
    Hooks.fireApiCall(Ev);
  }

  // Remove once-listeners before invoking them (Node semantics).
  if (It != E->Events.end()) {
    auto &Live = It->second;
    Live.erase(std::remove_if(Live.begin(), Live.end(),
                              [](const Listener &L) { return L.Once; }),
               Live.end());
  }

  for (const Listener &L : Snapshot) {
    DispatchInfo D;
    D.Phase = CurPhase;
    D.TopLevel = false;
    D.Sched = L.Sched;
    D.Api = L.Via;
    D.Trigger.K = TriggerInfo::Kind::Emitter;
    D.Trigger.Id = Trig;
    D.Trigger.Obj = E->Id;
    D.Trigger.Event = Event;
    D.TickSeq = TickSeq;
    Completion C = invoke(L.Fn, CallArgs(Args), D);
    if (C.isThrow())
      reportUncaught(C.takeValue(), L.Fn.loc());
  }

  if (!HadListeners && Event == "error") {
    // Node throws on unhandled 'error' events.
    Value Err = Args.empty() ? Value::str("Unhandled 'error' event")
                             : Args.front();
    reportUncaught(std::move(Err), std::move(Loc));
  }
  return HadListeners;
}

std::vector<EmitterRef> Runtime::liveEmitters() const {
  std::vector<EmitterRef> Out;
  for (const auto &W : AllEmitters)
    if (EmitterRef E = W.Ref.lock())
      Out.push_back(std::move(E));
  return Out;
}

//===----------------------------------------------------------------------===//
// External (I/O) scheduling support
//===----------------------------------------------------------------------===//

ScheduleId Runtime::registerExternal(SourceLocation Loc, ApiKind Api,
                                     const Function &Fn, bool Once,
                                     ObjectId BoundObj, std::string EventName,
                                     bool Internal) {
  assert(Fn.isValid() && "external registration requires a callback");
  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = Api;
    E.Loc = std::move(Loc);
    E.Sched = S;
    E.Callbacks.push_back(Fn);
    E.TargetPhase = PhaseKind::Io;
    E.Once = Once;
    E.BoundObj = BoundObj;
    E.EventName = std::move(EventName);
    E.Internal = Internal;
    Hooks.fireApiCall(E);
  }
  return S;
}

void Runtime::dispatchExternal(const Function &Fn, std::vector<Value> Args,
                               ScheduleId Sched, ApiKind Api) {
  ScheduledTask T;
  T.Fn = Fn;
  T.Args = std::move(Args);
  T.Sched = Sched;
  T.Api = Api;
  dispatchTask(T, PhaseKind::Io);
}

TriggerId Runtime::emitExternalTrigger(SourceLocation Loc, ApiKind Api,
                                       ObjectId BoundObj,
                                       std::string EventName, bool Internal) {
  TriggerId T = newTrigger();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = Api;
    E.Loc = std::move(Loc);
    E.Trigger = T;
    E.BoundObj = BoundObj;
    E.EventName = std::move(EventName);
    E.TriggerHadEffect = true;
    E.Internal = Internal;
    Hooks.fireApiCall(E);
  }
  return T;
}

void Runtime::dispatchInternal(const std::string &Name,
                               std::function<void(Runtime &)> Body) {
  Function Fn = makeBuiltin(Name, [Body = std::move(Body)](
                                      Runtime &RT, const CallArgs &) {
    Body(RT);
    return Completion::normal();
  });
  ScheduledTask T;
  T.Fn = Fn;
  T.Api = ApiKind::Internal;
  dispatchTask(T, PhaseKind::Io);
}

ScheduleId Runtime::scheduleCloseCallback(SourceLocation Loc,
                                          const Function &Fn,
                                          std::vector<Value> Args,
                                          bool Internal) {
  assert(Fn.isValid() && "close callback required");
  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = ApiKind::Internal;
    E.Loc = std::move(Loc);
    E.Sched = S;
    E.Callbacks.push_back(Fn);
    E.TargetPhase = PhaseKind::Close;
    E.Once = true;
    E.Internal = Internal;
    Hooks.fireApiCall(E);
  }
  ScheduledTask T;
  T.Fn = Fn;
  T.Args = std::move(Args);
  T.Sched = S;
  T.Api = ApiKind::Internal;
  CloseQueue.push_back(std::move(T));
  return S;
}

ScheduleId Runtime::emitterOnVia(SourceLocation Loc, ApiKind Api,
                                 const EmitterRef &E,
                                 const std::string &Event, const Function &Fn,
                                 bool Once) {
  return addListener(std::move(Loc), Api, E, Event, Fn, Once,
                     /*Prepend=*/false);
}

Value Runtime::getProperty(SourceLocation Loc, const Value &ObjV,
                           const std::string &Key) {
  assert(ObjV.isObject() && "getProperty requires an object");
  if (!Hooks.empty()) {
    instr::PropertyAccessEvent E;
    E.Obj = reinterpret_cast<uintptr_t>(ObjV.asObject().get());
    E.Key = Key;
    E.IsWrite = false;
    E.Loc = std::move(Loc);
    Hooks.firePropertyAccess(E);
  }
  return ObjV.asObject()->get(Key);
}

void Runtime::setProperty(SourceLocation Loc, const Value &ObjV,
                          const std::string &Key, Value V) {
  assert(ObjV.isObject() && "setProperty requires an object");
  if (!Hooks.empty()) {
    instr::PropertyAccessEvent E;
    E.Obj = reinterpret_cast<uintptr_t>(ObjV.asObject().get());
    E.Key = Key;
    E.IsWrite = true;
    E.Loc = std::move(Loc);
    Hooks.firePropertyAccess(E);
  }
  ObjV.asObject()->set(Key, std::move(V));
}

ScheduleId Runtime::queueMicrotask(SourceLocation Loc, const Function &Fn,
                                   std::vector<Value> Args) {
  assert(Fn.isValid() && "queueMicrotask requires a callback");
  ScheduleId S = newSchedule();
  if (!Hooks.empty()) {
    instr::ApiCallEvent &E = instr::scratchApiCall();
    E.Api = ApiKind::QueueMicrotask;
    E.Loc = std::move(Loc);
    E.Sched = S;
    E.Callbacks.push_back(Fn);
    E.TargetPhase = PhaseKind::PromiseMicro;
    E.Once = true;
    Hooks.fireApiCall(E);
  }
  ScheduledTask T;
  T.Fn = Fn;
  T.Args = std::move(Args);
  T.Sched = S;
  T.Api = ApiKind::QueueMicrotask;
  PromiseQueue.push_back(std::move(T));
  return S;
}

const EmitterRef &Runtime::process() {
  if (!ProcessEmitter)
    ProcessEmitter = emitterCreate(SourceLocation::internal(), "process",
                                   /*Internal=*/true);
  return ProcessEmitter;
}

bool Runtime::tryBeforeExit() {
  if (BeforeExitEmitted || !ProcessEmitter ||
      !ProcessEmitter->hasListeners("beforeExit"))
    return false;
  EmitterRef Process = ProcessEmitter;
  dispatchInternal("(before exit)", [Process](Runtime &RT) {
    RT.emitterEmit(SourceLocation::internal(), Process, "beforeExit");
  });
  // Set after the dispatch (which clears the flag): one emission per
  // drain unless listeners scheduled new work.
  BeforeExitEmitted = true;
  return true;
}
