//===- TraceCodec.cpp - Hook events <-> binary trace records ------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "instr/TraceCodec.h"

#include "jsrt/Ids.h"

#include <algorithm>
#include <cstring>
#include <iterator>

using namespace asyncg;
using namespace asyncg::instr;
using namespace asyncg::trace;

static uint64_t doubleBits(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof(U));
  return U;
}

static double bitsDouble(uint64_t U) {
  double D;
  std::memcpy(&D, &U, sizeof(D));
  return D;
}

//===----------------------------------------------------------------------===//
// TraceEncoder
//===----------------------------------------------------------------------===//

void TraceEncoder::defineFunc(const jsrt::Function &F,
                              std::vector<TraceRecord> &Out) {
  jsrt::FunctionId Id = F.id();
  // One encoder serves one shard, so the seen-set is indexed by the dense
  // shard-local id; records still carry the full (shard-packed) id.
  uint64_t Local = jsrt::idLocal(Id);
  if (Local < SeenFunc.size() && SeenFunc[Local])
    return;
  if (Local >= SeenFunc.size())
    SeenFunc.resize(Local + 1, false);
  SeenFunc[Local] = true;

  TraceRecord R;
  R.Op = static_cast<uint8_t>(TraceOp::FuncDef);
  R.A8 = F.isBuiltin() ? 1 : 0;
  R.C32 = F.nameSymbol().id();
  R.D64 = Id;
  R.F64 = packLoc(F.loc().fileSymbol().id(), F.loc().line());
  Out.push_back(R);
}

void TraceEncoder::shardInfo(uint32_t Shard, std::vector<TraceRecord> &Out) {
  TraceRecord R;
  R.Op = static_cast<uint8_t>(TraceOp::ShardInfo);
  R.C32 = Shard;
  Out.push_back(R);
}

void TraceEncoder::functionEnter(const FunctionEnterEvent &E,
                                 std::vector<TraceRecord> &Out) {
  defineFunc(E.F, Out);

  const jsrt::DispatchInfo &D = E.Dispatch;
  if (!D.Trigger.isNone()) {
    TraceRecord T;
    T.Op = static_cast<uint8_t>(TraceOp::EnterTrigger);
    T.A8 = static_cast<uint8_t>(D.Trigger.K);
    T.B16 = D.Trigger.IsReject ? 1 : 0;
    T.C32 = D.Trigger.Event.id();
    T.D64 = D.Trigger.Id;
    T.E64 = D.Trigger.Obj;
    Out.push_back(T);
  }

  TraceRecord R;
  R.Op = static_cast<uint8_t>(TraceOp::Enter);
  R.A8 = static_cast<uint8_t>(D.Phase);
  R.B16 = D.TopLevel ? 1 : 0;
  R.C32 = static_cast<uint32_t>(D.Api);
  R.D64 = E.F.id();
  R.E64 = D.Sched;
  R.F64 = D.TickSeq;
  Out.push_back(R);
}

void TraceEncoder::functionExit(const FunctionExitEvent &E,
                                std::vector<TraceRecord> &Out) {
  TraceRecord R;
  R.Op = static_cast<uint8_t>(TraceOp::Exit);
  R.D64 = E.F.id();
  Out.push_back(R);
}

void TraceEncoder::apiCall(const ApiCallEvent &E,
                           std::vector<TraceRecord> &Out) {
  // A callback that is only passed to an API (the fresh function handed
  // to removeListener) is never entered, so define it here: a decoder
  // that met its id only in ApiFuncs would know it by id alone.
  for (const jsrt::Function &Cb : E.Callbacks)
    defineFunc(Cb, Out);

  TraceRecord Base;
  Base.Op = static_cast<uint8_t>(TraceOp::ApiBase);
  Base.A8 = static_cast<uint8_t>(E.Api);
  uint16_t Flags = 0;
  if (E.Once)
    Flags |= 1;
  if (E.HasRejectHandler)
    Flags |= 2;
  if (E.TriggerHadEffect)
    Flags |= 4;
  if (E.Internal)
    Flags |= 8;
  Flags |= static_cast<uint16_t>(static_cast<uint16_t>(E.TargetPhase) << 8);
  Base.B16 = Flags;
  Base.C32 = E.EventName.id();
  Base.D64 = E.Sched;
  Base.E64 = E.BoundObj;
  Base.F64 = E.Trigger;
  Out.push_back(Base);

  TraceRecord Ext;
  Ext.Op = static_cast<uint8_t>(TraceOp::ApiExt);
  Ext.A8 = static_cast<uint8_t>(E.Callbacks.size());
  Ext.B16 = static_cast<uint16_t>(E.InputObjs.size());
  Ext.C32 = E.Loc.line();
  Ext.D64 = doubleBits(E.TimeoutMs);
  Ext.E64 = E.DerivedObj;
  Ext.F64 = packLoc(E.Loc.fileSymbol().id(), 0);
  Out.push_back(Ext);

  for (size_t I = 0; I < E.Callbacks.size(); I += 3) {
    TraceRecord R;
    R.Op = static_cast<uint8_t>(TraceOp::ApiFuncs);
    uint64_t Ids[3] = {0, 0, 0};
    size_t N = 0;
    for (; N != 3 && I + N < E.Callbacks.size(); ++N)
      Ids[N] = E.Callbacks[I + N].id();
    R.A8 = static_cast<uint8_t>(N);
    R.D64 = Ids[0];
    R.E64 = Ids[1];
    R.F64 = Ids[2];
    Out.push_back(R);
  }

  for (size_t I = 0; I < E.InputObjs.size(); I += 3) {
    TraceRecord R;
    R.Op = static_cast<uint8_t>(TraceOp::ApiInputs);
    uint64_t Ids[3] = {0, 0, 0};
    size_t N = 0;
    for (; N != 3 && I + N < E.InputObjs.size(); ++N)
      Ids[N] = E.InputObjs[I + N];
    R.A8 = static_cast<uint8_t>(N);
    R.D64 = Ids[0];
    R.E64 = Ids[1];
    R.F64 = Ids[2];
    Out.push_back(R);
  }
}

void TraceEncoder::objectCreate(const ObjectCreateEvent &E,
                                std::vector<TraceRecord> &Out) {
  TraceRecord R;
  R.Op = static_cast<uint8_t>(TraceOp::ObjCreate);
  R.A8 = static_cast<uint8_t>((E.IsPromise ? 1 : 0) | (E.Internal ? 2 : 0));
  R.B16 = static_cast<uint16_t>(E.Relation);
  R.C32 = E.Name.id();
  R.D64 = E.Obj;
  R.E64 = E.Parent;
  R.F64 = packLoc(E.Loc.fileSymbol().id(), E.Loc.line());
  Out.push_back(R);
}

void TraceEncoder::reactionResult(const ReactionResultEvent &E,
                                  std::vector<TraceRecord> &Out) {
  TraceRecord R;
  R.Op = static_cast<uint8_t>(TraceOp::ReactionResult);
  R.A8 = static_cast<uint8_t>((E.ReturnedUndefined ? 1 : 0) |
                              (E.Threw ? 2 : 0));
  R.D64 = E.Source;
  R.E64 = E.Derived;
  R.F64 = E.Sched;
  Out.push_back(R);
}

void TraceEncoder::promiseLink(const PromiseLinkEvent &E,
                               std::vector<TraceRecord> &Out) {
  TraceRecord R;
  R.Op = static_cast<uint8_t>(TraceOp::PromiseLink);
  R.D64 = E.Returned;
  R.E64 = E.Derived;
  Out.push_back(R);
}

void TraceEncoder::objectRelease(const ObjectReleaseEvent &E,
                                 std::vector<TraceRecord> &Out) {
  TraceRecord R;
  R.Op = static_cast<uint8_t>(TraceOp::ObjectRelease);
  R.A8 = E.IsPromise ? 1 : 0;
  R.D64 = E.Obj;
  Out.push_back(R);
}

void TraceEncoder::loopEnd(const LoopEndEvent &E,
                           std::vector<TraceRecord> &Out) {
  TraceRecord R;
  R.Op = static_cast<uint8_t>(TraceOp::LoopEnd);
  R.A8 = E.TickBudgetExhausted ? 1 : 0;
  R.D64 = E.Ticks;
  Out.push_back(R);
}

//===----------------------------------------------------------------------===//
// TraceDecoder
//===----------------------------------------------------------------------===//

Symbol TraceDecoder::sym(uint32_t Raw) const {
  if (Remap.empty())
    return Symbol::fromId(Raw);
  if (Raw >= Remap.size())
    return Symbol();
  return Symbol::fromId(Remap[Raw]);
}

SourceLocation TraceDecoder::loc(uint64_t Packed) const {
  return SourceLocation(sym(packedLocFile(Packed)), packedLocLine(Packed));
}

const jsrt::Function &TraceDecoder::newFunc(jsrt::FunctionId Id) {
  auto Make = [Id] {
    auto Data = std::make_shared<jsrt::FunctionData>();
    Data->Id = Id;
    return jsrt::Function(std::move(Data));
  };
  // Once a stray, always a stray: one id keeps one handle even if the
  // window later grows over its page.
  if (!StrayFuncs.empty())
    if (jsrt::Function *F = StrayFuncs.find(Id))
      return *F;
  const uint64_t Page = Id >> FuncPageBits;
  if (FuncDir.empty())
    FuncPageBase = Page;
  // The directory span that would cover Page, from its current window.
  const uint64_t Lo = std::min(FuncPageBase, Page);
  const uint64_t Hi = std::max(FuncPageBase + FuncDir.size(), Page + 1);
  if (Hi - Lo > FuncDirSlack * (PagesAllocated + 1))
    return StrayFuncs[Id] = Make();
  if (Page < FuncPageBase) {
    std::vector<std::unique_ptr<FuncPage>> Dir(FuncPageBase - Page);
    std::move(FuncDir.begin(), FuncDir.end(), std::back_inserter(Dir));
    FuncDir = std::move(Dir);
    FuncPageBase = Page;
  } else if (Page - FuncPageBase >= FuncDir.size()) {
    FuncDir.resize(Page - FuncPageBase + 1);
  }
  std::unique_ptr<FuncPage> &P = FuncDir[Page - FuncPageBase];
  if (!P) {
    P = std::make_unique<FuncPage>();
    ++PagesAllocated;
  }
  jsrt::Function &F = P->Slots[Id & (FuncPageSize - 1)];
  if (!F)
    F = Make();
  return F;
}

void TraceDecoder::decode(const TraceRecord *Records, size_t N,
                          AnalysisBase &Sink) {
  for (size_t I = 0; I != N; ++I)
    feed(Records[I], Sink);
}

void TraceDecoder::finishApiIfReady(AnalysisBase &Sink) {
  if (!ApiOpen || ApiFuncsLeft != 0 || ApiInputsLeft != 0)
    return;
  ApiOpen = false;
  Api.Loc = ApiLoc;
  Sink.onApiCall(Api);
}

void TraceDecoder::feed(const TraceRecord &R, AnalysisBase &Sink) {
  // An ApiBase..ApiInputs sequence interrupted by any other opcode is a
  // malformed trace; drop the partial event and keep going.
  TraceOp Op = static_cast<TraceOp>(R.Op);
  if (ApiOpen && !(Op == TraceOp::ApiExt || Op == TraceOp::ApiFuncs ||
                   Op == TraceOp::ApiInputs)) {
    ApiOpen = false;
    ++BadRecords;
  }

  switch (Op) {
  case TraceOp::FuncDef: {
    const jsrt::Function &F = funcFor(R.D64);
    // Fill (or refresh) the identity: placeholders created by earlier
    // ApiFuncs references gain their name/location here.
    Symbol Name = sym(R.C32);
    F.ref()->Name = std::string(Name.view());
    F.ref()->NameSym = Name;
    F.ref()->Loc = loc(R.F64);
    F.ref()->IsBuiltin = R.A8 != 0;
    return;
  }

  case TraceOp::EnterTrigger: {
    PendingTrigger.K = static_cast<jsrt::TriggerInfo::Kind>(R.A8);
    PendingTrigger.IsReject = (R.B16 & 1) != 0;
    PendingTrigger.Event = sym(R.C32);
    PendingTrigger.Id = R.D64;
    PendingTrigger.Obj = R.E64;
    return;
  }

  case TraceOp::Enter: {
    static const jsrt::CallArgs EmptyArgs;
    jsrt::DispatchInfo D;
    D.Phase = static_cast<jsrt::PhaseKind>(R.A8);
    D.TopLevel = (R.B16 & 1) != 0;
    D.Api = static_cast<jsrt::ApiKind>(R.C32);
    D.Sched = R.E64;
    D.TickSeq = R.F64;
    D.Trigger = PendingTrigger;
    PendingTrigger = jsrt::TriggerInfo();
    // Borrowed from the function table: the sink's copies are its own business, and
    // decoding pays no reference-count traffic per record.
    FunctionEnterEvent Ev{funcFor(R.D64), EmptyArgs, D};
    Sink.onFunctionEnter(Ev);
    return;
  }

  case TraceOp::Exit: {
    static const jsrt::Completion NormalResult;
    static const jsrt::DispatchInfo NoDispatch;
    FunctionExitEvent Ev{funcFor(R.D64), NormalResult, NoDispatch};
    Sink.onFunctionExit(Ev);
    return;
  }

  case TraceOp::ApiBase: {
    Api.Api = static_cast<jsrt::ApiKind>(R.A8);
    Api.Once = (R.B16 & 1) != 0;
    Api.HasRejectHandler = (R.B16 & 2) != 0;
    Api.TriggerHadEffect = (R.B16 & 4) != 0;
    Api.Internal = (R.B16 & 8) != 0;
    Api.TargetPhase = static_cast<jsrt::PhaseKind>((R.B16 >> 8) & 0xf);
    Api.EventName = sym(R.C32);
    Api.Sched = R.D64;
    Api.BoundObj = R.E64;
    Api.Trigger = R.F64;
    Api.Callbacks.clear();
    Api.InputObjs.clear();
    ApiFuncsLeft = 0;
    ApiInputsLeft = 0;
    ApiOpen = true;
    return;
  }

  case TraceOp::ApiExt: {
    if (!ApiOpen) {
      ++BadRecords;
      return;
    }
    ApiFuncsLeft = R.A8;
    ApiInputsLeft = R.B16;
    ApiLoc = SourceLocation(sym(packedLocFile(R.F64)), R.C32);
    Api.TimeoutMs = bitsDouble(R.D64);
    Api.DerivedObj = R.E64;
    finishApiIfReady(Sink);
    return;
  }

  case TraceOp::ApiFuncs: {
    if (!ApiOpen) {
      ++BadRecords;
      return;
    }
    uint64_t Ids[3] = {R.D64, R.E64, R.F64};
    for (unsigned I = 0; I != R.A8 && ApiFuncsLeft != 0; ++I) {
      Api.Callbacks.push_back(funcFor(Ids[I]));
      --ApiFuncsLeft;
    }
    finishApiIfReady(Sink);
    return;
  }

  case TraceOp::ApiInputs: {
    if (!ApiOpen) {
      ++BadRecords;
      return;
    }
    uint64_t Ids[3] = {R.D64, R.E64, R.F64};
    for (unsigned I = 0; I != R.A8 && ApiInputsLeft != 0; ++I) {
      Api.InputObjs.push_back(Ids[I]);
      --ApiInputsLeft;
    }
    finishApiIfReady(Sink);
    return;
  }

  case TraceOp::ObjCreate: {
    ObjectCreateEvent Ev;
    Ev.IsPromise = (R.A8 & 1) != 0;
    Ev.Internal = (R.A8 & 2) != 0;
    Ev.Relation = static_cast<jsrt::ApiKind>(R.B16);
    Ev.Name = sym(R.C32);
    Ev.Obj = R.D64;
    Ev.Parent = R.E64;
    Ev.Loc = loc(R.F64);
    Sink.onObjectCreate(Ev);
    return;
  }

  case TraceOp::ReactionResult: {
    ReactionResultEvent Ev;
    Ev.ReturnedUndefined = (R.A8 & 1) != 0;
    Ev.Threw = (R.A8 & 2) != 0;
    Ev.Source = R.D64;
    Ev.Derived = R.E64;
    Ev.Sched = R.F64;
    Sink.onReactionResult(Ev);
    return;
  }

  case TraceOp::PromiseLink: {
    PromiseLinkEvent Ev;
    Ev.Returned = R.D64;
    Ev.Derived = R.E64;
    Sink.onPromiseLink(Ev);
    return;
  }

  case TraceOp::ObjectRelease: {
    ObjectReleaseEvent Ev;
    Ev.IsPromise = (R.A8 & 1) != 0;
    Ev.Obj = R.D64;
    Sink.onObjectRelease(Ev);
    return;
  }

  case TraceOp::LoopEnd: {
    LoopEndEvent Ev;
    Ev.TickBudgetExhausted = (R.A8 & 1) != 0;
    Ev.Ticks = R.D64;
    Sink.onLoopEnd(Ev);
    return;
  }

  case TraceOp::ShardInfo: {
    // Stream metadata, not an event: remember which shard recorded this
    // stream so consumers (merge layers, tools) can ask.
    ShardId = R.C32;
    return;
  }
  }
  ++BadRecords;
}

//===----------------------------------------------------------------------===//
// TraceRecorder + replay
//===----------------------------------------------------------------------===//

bool TraceRecorder::open(const std::string &Path, uint32_t Shard) {
  if (!Writer.open(Path))
    return false;
  Scratch.clear();
  if (Shard != 0) {
    Encoder.shardInfo(Shard, Scratch);
    flushScratch();
  }
  return true;
}

bool TraceRecorder::finalize() {
  flushScratch();
  return Writer.finalize();
}

void TraceRecorder::flushScratch() {
  Writer.append(Scratch.data(), Scratch.size());
  Scratch.clear();
}

void TraceRecorder::onFunctionEnter(const FunctionEnterEvent &E) {
  Encoder.functionEnter(E, Scratch);
  flushScratch();
}
void TraceRecorder::onFunctionExit(const FunctionExitEvent &E) {
  Encoder.functionExit(E, Scratch);
  flushScratch();
}
void TraceRecorder::onApiCall(const ApiCallEvent &E) {
  Encoder.apiCall(E, Scratch);
  flushScratch();
}
void TraceRecorder::onObjectCreate(const ObjectCreateEvent &E) {
  Encoder.objectCreate(E, Scratch);
  flushScratch();
}
void TraceRecorder::onReactionResult(const ReactionResultEvent &E) {
  Encoder.reactionResult(E, Scratch);
  flushScratch();
}
void TraceRecorder::onPromiseLink(const PromiseLinkEvent &E) {
  Encoder.promiseLink(E, Scratch);
  flushScratch();
}
void TraceRecorder::onObjectRelease(const ObjectReleaseEvent &E) {
  Encoder.objectRelease(E, Scratch);
  flushScratch();
}
void TraceRecorder::onLoopEnd(const LoopEndEvent &E) {
  Encoder.loopEnd(E, Scratch);
  flushScratch();
}

//===----------------------------------------------------------------------===//
// TraceStream
//===----------------------------------------------------------------------===//

/// Touch the leading cache lines of the next frame while the current one
/// is being applied; the mapping is already populated, this hides the
/// first-line miss of each frame switch.
static void prefetchFrame(const uint8_t *P, size_t Bytes) {
  size_t N = Bytes < 4096 ? Bytes : size_t(4096);
  for (size_t O = 0; O < N; O += 64)
    __builtin_prefetch(P + O, 0, 1);
}

bool TraceStream::open(const std::string &Path, std::string *Err) {
  if (!Map.openRaw(Path, Err))
    return false;
  std::string OpenErr;
  if (Map.validate(&OpenErr)) {
    Base = Map.recordData();
    if (!trace::scanV4Frames(Base, static_cast<size_t>(Map.recordByteSize()),
                             Map.header().RecordCount, Frames, Err))
      return false;
    Decoder.setSymbolRemap(Map.symbolRemap());
    Stats.Version = Map.header().Version;
  } else {
    // Validation failed: a torn recording never got its symbol section or
    // header counts. Locate the clean frame prefix through the checkpoint
    // chain; if the image is not recoverable v4 either, report the
    // original failure.
    if (!trace::scanV4Recovery(Map.data(), Map.size(), Frames, RecoveryRemap,
                               Stats.DroppedTailBytes)) {
      if (Err)
        *Err = OpenErr;
      return false;
    }
    Base = Map.data();
    Stats.Version = trace::TraceVersion;
    Stats.Recovered = true;
  }
  Limit = Frames.size();
  for (const trace::TraceFrameRef &F : Frames)
    ScannedRecords += F.Records;
  return true;
}

bool TraceStream::decodeFrame(size_t I, std::vector<TraceRecord> &Out,
                              std::string *Err) const {
  const trace::TraceFrameRef &F = Frames[I];
  Out.clear();
  Out.reserve(F.Records);
  size_t Consumed = 0;
  if (!trace::decodeV4Frame(
          Base + F.Offset, F.Bytes, Consumed,
          [&Out](const TraceRecord &R) { Out.push_back(R); }, Err))
    return false;
  if (Consumed != F.Bytes) {
    if (Err)
      *Err = "corrupt trace: frame size disagrees with scan";
    return false;
  }
  return true;
}

void TraceStream::syncRemap(const trace::TraceFrameRef &F) {
  if (!Stats.Recovered || F.RemapSize == RemapInstalled)
    return;
  Decoder.setSymbolRemap(std::vector<SymbolId>(
      RecoveryRemap.begin(), RecoveryRemap.begin() + F.RemapSize));
  RemapInstalled = F.RemapSize;
}

void TraceStream::commit(const trace::TraceFrameRef &F, AnalysisBase &Sink) {
  // Frame boundary: the retirement safe point, so replaying a long trace
  // needs only O(live-window) memory under a retiring builder.
  Sink.onBatchBoundary();
  Stats.Records += F.Records;
  Stats.RecordBytes += F.Bytes;
  ++Next;
}

bool TraceStream::applyNext(AnalysisBase &Sink, std::string *Err) {
  const trace::TraceFrameRef &F = Frames[Next];
  syncRemap(F);
  if (Next + 1 < Limit)
    prefetchFrame(Base + Frames[Next + 1].Offset, Frames[Next + 1].Bytes);
  std::string FrameErr;
  if (Stats.Recovered) {
    // A torn stream's frame may fail mid-decode; materialize it first so
    // the sink only ever sees whole frames.
    if (!decodeFrame(Next, Scratch, &FrameErr))
      return failNext(FrameErr, Err);
    Decoder.decode(Scratch.data(), Scratch.size(), Sink);
  } else {
    size_t Consumed = 0;
    if (!trace::decodeV4Frame(
            Base + F.Offset, F.Bytes, Consumed,
            [&](const TraceRecord &R) { Decoder.decodeOne(R, Sink); },
            &FrameErr))
      return failNext(FrameErr, Err);
  }
  commit(F, Sink);
  return true;
}

void TraceStream::applyDecoded(const std::vector<TraceRecord> &Records,
                               AnalysisBase &Sink) {
  const trace::TraceFrameRef &F = Frames[Next];
  syncRemap(F);
  Decoder.decode(Records.data(), Records.size(), Sink);
  commit(F, Sink);
}

bool TraceStream::failNext(const std::string &FrameErr, std::string *Err) {
  if (!Stats.Recovered) {
    if (Err)
      *Err = FrameErr;
    return false;
  }
  // Clean-prefix guarantee: the frame is dropped with everything after
  // it. Frames stays intact for in-flight decode workers; Limit carries
  // the truncation.
  Limit = Next;
  Stats.DroppedTailBytes = Map.size() - Frames[Next].Offset;
  return true;
}

bool instr::replayTrace(const std::string &Path, AnalysisBase &Sink,
                        std::string *Err, ReplayTransport,
                        ReplayStats *Stats) {
  TraceStream S;
  bool Ok = S.open(Path, Err) && S.applyAll(Sink, Err);
  if (Stats)
    *Stats = S.stats();
  return Ok;
}
