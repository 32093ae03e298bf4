//===- TraceCodec.cpp - Hook events <-> binary trace records ------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "instr/TraceCodec.h"

#include "jsrt/Ids.h"

#include <cstring>
#include <memory>

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

TraceDecoder::TraceDecoder() { Funcs.reserve(256); }

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

const jsrt::Function &TraceDecoder::funcFor(jsrt::FunctionId Id) {
  if (BatchOn) {
    FnMemoEntry &E = FnMemo[Id % FnMemoSize];
    if (E.F && E.Id == Id)
      return *E.F;
    if (jsrt::Function *F = Funcs.find(Id)) {
      E.Id = Id;
      E.F = F;
      return *F;
    }
  } else if (jsrt::Function *F = Funcs.find(Id)) {
    return *F;
  }
  auto Data = std::make_shared<jsrt::FunctionData>();
  Data->Id = Id;
  jsrt::Function &Slot = Funcs[Id];
  Slot = jsrt::Function(std::move(Data));
  // The insertion may have rehashed Funcs; every memoized pointer is
  // suspect now.
  for (FnMemoEntry &E : FnMemo)
    E = FnMemoEntry();
  return Slot;
}

void TraceDecoder::decode(const TraceRecord *Records, size_t N,
                          AnalysisBase &Sink) {
  for (size_t I = 0; I != N; ++I)
    feed(Records[I], Sink);
}

void TraceDecoder::decodeBatch(const TraceRecord *Records, size_t N,
                               AnalysisBase &Sink) {
  beginBatch();
  for (size_t I = 0; I != N; ++I)
    feed(Records[I], Sink);
  endBatch();
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
    // Borrowed from Funcs: the sink's copies are its own business, and
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

bool TraceRecorder::open(const std::string &Path, uint32_t Shard,
                         uint32_t Version) {
  if (Shard != 0 && Version < 3)
    return false; // ShardInfo is a v3 opcode
  if (!Writer.open(Path, Version))
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

namespace {

/// Replays a torn/truncated v4 image through the checkpoint-recovery
/// scanner: whole frames only, symbol remap grown from the interleaved
/// checkpoints. Shared by both transports' fallback paths.
bool replayRecovered(const uint8_t *Bytes, uint64_t Size, AnalysisBase &Sink,
                     std::string *Err, ReplayStats *Stats) {
  TraceDecoder Decoder;
  std::vector<SymbolId> Remap;
  size_t Mapped = 0;
  trace::TraceRecoveryInfo Info;
  bool Ok = trace::recoverV4Prefix(
      Bytes, Size, Remap,
      [&](const trace::TraceRecord *R, size_t N) {
        if (Remap.size() != Mapped) {
          Decoder.setSymbolRemap(Remap);
          Mapped = Remap.size();
        }
        for (size_t I = 0; I != N; ++I)
          Decoder.decodeOne(R[I], Sink);
        // Frame boundary: the retirement safe point, as in normal replay.
        Sink.onBatchBoundary();
      },
      &Info, Err);
  if (Ok && Stats) {
    Stats->Records = Info.Records;
    Stats->RecordBytes = Info.RecordBytes;
    Stats->BadRecords = Decoder.badRecords();
    Stats->Version = trace::TraceVersion;
    Stats->Recovered = true;
    Stats->DroppedTailBytes = Info.DroppedBytes;
  }
  return Ok;
}

bool slurpFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  bool Ok = std::fseek(F, 0, SEEK_END) == 0;
  long Size = Ok ? std::ftell(F) : -1;
  Ok = Ok && Size >= 0 && std::fseek(F, 0, SEEK_SET) == 0;
  if (Ok) {
    Out.resize(static_cast<size_t>(Size));
    Ok = Out.empty() ||
         std::fread(Out.data(), 1, Out.size(), F) == Out.size();
  }
  std::fclose(F);
  return Ok;
}

bool replayStdio(const std::string &Path, AnalysisBase &Sink,
                 std::string *Err, ReplayStats *Stats) {
  TraceFileReader Reader;
  std::string OpenErr;
  if (!Reader.open(Path, &OpenErr)) {
    // Strict open refused the file — a recording cut off by a crash never
    // got its symbol section or header counts. Salvage the clean
    // frame-aligned prefix from the checkpoint chain; if the image is not
    // recoverable v4 either, report the original failure.
    std::vector<uint8_t> Bytes;
    if (slurpFile(Path, Bytes) &&
        replayRecovered(Bytes.data(), Bytes.size(), Sink, nullptr, Stats))
      return true;
    if (Err)
      *Err = OpenErr;
    return false;
  }
  TraceDecoder Decoder;
  Decoder.setSymbolRemap(Reader.symbolRemap());
  uint64_t Records = 0;
  TraceRecord Buf[1024];
  while (size_t N = Reader.read(Buf, 1024)) {
    Decoder.decode(Buf, N, Sink);
    Records += N;
    // Chunk boundary: lets a retiring builder reclaim quiesced regions so
    // replaying a long trace needs only O(live-window) memory too.
    Sink.onBatchBoundary();
  }
  if (Stats) {
    Stats->Records = Records;
    Stats->RecordBytes = Reader.version() <= trace::TraceLastRawVersion
                             ? Reader.recordCount() * sizeof(TraceRecord)
                             : 0; // see mmap path for exact v4 bytes
    Stats->BadRecords = Decoder.badRecords();
    Stats->Version = Reader.version();
  }
  if (!Reader.error().empty()) {
    if (Err)
      *Err = Reader.error();
    return false;
  }
  return true;
}

bool replayMmap(const std::string &Path, AnalysisBase &Sink,
                std::string *Err, ReplayStats *Stats) {
  TraceMmapReader Map;
  std::string OpenErr;
  if (!Map.open(Path, &OpenErr)) {
    if (OpenErr != "mmap unavailable on this platform" &&
        OpenErr != "cannot open trace file" &&
        OpenErr != "cannot mmap trace file") {
      // Validation (not mmap itself) failed: try torn-tail recovery over a
      // raw mapping of the same file.
      TraceMmapReader Raw;
      if (Raw.openRaw(Path, nullptr) &&
          replayRecovered(Raw.data(), Raw.size(), Sink, nullptr, Stats))
        return true;
    }
    if (Err)
      *Err = OpenErr;
    return false;
  }
  TraceDecoder Decoder;
  Decoder.setSymbolRemap(Map.symbolRemap());
  const TraceFileHeader &H = Map.header();
  uint64_t Records = 0;
  bool Ok = true;

  if (H.Version <= trace::TraceLastRawVersion) {
    // Raw rows: feed batches straight out of the mapping (the file layout
    // is the in-memory layout).
    const auto *R = reinterpret_cast<const TraceRecord *>(Map.recordData());
    uint64_t Left = H.RecordCount;
    while (Left != 0) {
      size_t N = Left < 4096 ? static_cast<size_t>(Left) : 4096;
      Decoder.decode(R, N, Sink);
      R += N;
      Left -= N;
      Records += N;
      Sink.onBatchBoundary();
    }
  } else {
    // v4 frames: decode record-at-a-time from the mapping into the event
    // decoder — no intermediate record buffer.
    const uint8_t *P = Map.recordData();
    uint64_t Avail = Map.recordByteSize();
    while (Records < H.RecordCount) {
      if (Avail == 0) {
        Ok = false;
        if (Err)
          *Err = "trace file truncated: missing frames";
        break;
      }
      size_t Skip = 0;
      if (trace::skipSymFrame(P, static_cast<size_t>(Avail), Skip)) {
        // Symbol checkpoint: superseded by the finalized symbol section.
        P += Skip;
        Avail -= Skip;
        continue;
      }
      size_t Consumed = 0;
      Ok = trace::decodeV4Frame(
          P, static_cast<size_t>(Avail), Consumed,
          [&](const TraceRecord &R) {
            Decoder.decodeOne(R, Sink);
            ++Records;
          },
          Err);
      if (!Ok)
        break;
      P += Consumed;
      Avail -= Consumed;
      // Frame boundary: the retirement safe point of this transport.
      Sink.onBatchBoundary();
    }
  }

  if (Stats) {
    Stats->Records = Records;
    Stats->RecordBytes = Map.recordByteSize();
    Stats->BadRecords = Decoder.badRecords();
    Stats->Version = H.Version;
  }
  return Ok;
}

} // namespace

bool instr::replayTrace(const std::string &Path, AnalysisBase &Sink,
                        std::string *Err, ReplayTransport Transport,
                        ReplayStats *Stats) {
  if (Transport == ReplayTransport::Stdio)
    return replayStdio(Path, Sink, Err, Stats);
  if (Transport == ReplayTransport::Mmap)
    return replayMmap(Path, Sink, Err, Stats);
  // Auto: v4 gets the zero-copy path; raw versions keep their historical
  // stdio path (and any mmap setup failure falls back to stdio). Peek at
  // the header alone to pick — full validation happens in the chosen path.
  {
    TraceFileHeader H = {};
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    bool GotHeader = F && std::fread(&H, sizeof(H), 1, F) == 1;
    if (F)
      std::fclose(F);
    if (!GotHeader ||
        std::memcmp(H.Magic, trace::TraceMagic, sizeof(H.Magic)) != 0 ||
        H.Version <= trace::TraceLastRawVersion)
      return replayStdio(Path, Sink, Err, Stats);
  }
  std::string MmapErr;
  if (replayMmap(Path, Sink, &MmapErr, Stats))
    return true;
  if (MmapErr == "mmap unavailable on this platform" ||
      MmapErr == "cannot mmap trace file")
    return replayStdio(Path, Sink, Err, Stats);
  if (Err)
    *Err = MmapErr;
  return false;
}
