//===- TraceFormat.h - Compact binary trace records -------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary on-the-wire format of the asynchronous instrumentation
/// pipeline: every hook event is encoded into one or more fixed-size
/// 32-byte TraceRecords. The same records travel through the in-process
/// SPSC ring (support/SpscRing.h) and into `.agtrace` files for offline
/// replay (instr/TraceCodec.h builds events back from them).
///
/// Record layout (32 bytes, little-endian fields, trivially copyable):
///
///   | field | size | purpose                                         |
///   |-------|------|-------------------------------------------------|
///   | Op    | 1    | TraceOp opcode                                  |
///   | A8    | 1    | small scalar / flags (per opcode)               |
///   | B16   | 2    | flags / counts (per opcode)                     |
///   | C32   | 4    | Symbol id / 32-bit scalar (per opcode)          |
///   | D64   | 8    | id / payload                                    |
///   | E64   | 8    | id / payload                                    |
///   | F64   | 8    | id / payload (packLoc: low32 file, high32 line) |
///
/// Multi-record events keep a fixed order so the decoder is a simple state
/// machine: [FuncDef]* [EnterTrigger]? Enter — and ApiBase ApiExt
/// [ApiFuncs]* [ApiInputs]*, with counts carried in ApiExt.
///
/// `.agtrace` file layout: a 32-byte TraceFileHeader (magic + version,
/// validated on open), a record section, then a symbol-table section
/// (count + length-prefixed strings) so Symbol ids survive across
/// processes; the reader re-interns them and hands the decoder an old-id
/// -> new-id remap.
///
/// Record section (v4, columnar delta compression): a sequence of
/// batch frames. Each frame is self-contained — per-opcode prediction
/// state resets at the frame boundary — so frames decode independently
/// and a truncated tail loses at most one frame. Frame layout:
///
///   TraceFrameHeader { magic, record count, 8 column byte sizes }
///   column 0: Op    — one raw byte per record
///   column 1: Mask  — one raw byte per record; bit i set means field i
///                     differs from the previous record *of the same
///                     opcode* in this frame and a varint follows in
///                     field i's column; clear means "same as before"
///                     and costs zero bytes
///   columns 2..7: A8, B16, C32, D64, E64, F64 — zigzag(delta) LEB128
///                     varints, delta against the previous same-opcode
///                     record's field (zero at frame start)
///
/// Ticks, ids, and tick-seqs are near-monotonic and call-site locations,
/// ApiKinds, and flags repeat heavily per opcode, so most fields are
/// "unchanged" (0 bytes) or one-byte deltas; typical frames are 4-6x
/// smaller than the raw 32-byte rows.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_SUPPORT_TRACEFORMAT_H
#define ASYNCG_SUPPORT_TRACEFORMAT_H

#include "support/SymbolTable.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace asyncg {
namespace trace {

/// Opcode of one trace record.
enum class TraceOp : uint8_t {
  /// Defines a function the first time it appears: A8 = IsBuiltin,
  /// C32 = name Symbol, D64 = FunctionId, F64 = packed definition loc.
  FuncDef = 1,
  /// Trigger context for the next Enter: A8 = TriggerInfo::Kind,
  /// B16 bit0 = IsReject, C32 = event Symbol, D64 = TriggerId,
  /// E64 = ObjectId.
  EnterTrigger = 2,
  /// Function enter: A8 = PhaseKind, B16 bit0 = TopLevel, C32 = ApiKind,
  /// D64 = FunctionId, E64 = ScheduleId, F64 = TickSeq.
  Enter = 3,
  /// Function exit: D64 = FunctionId.
  Exit = 4,
  /// API call, part 1: A8 = ApiKind, B16 bits0-3 = Once/HasRejectHandler/
  /// TriggerHadEffect/Internal, bits8-11 = TargetPhase, C32 = event
  /// Symbol, D64 = ScheduleId, E64 = BoundObj, F64 = TriggerId.
  ApiBase = 5,
  /// API call, part 2 (always follows ApiBase): A8 = callback count,
  /// B16 = input-promise count, C32 = loc line, D64 = TimeoutMs bits,
  /// E64 = DerivedObj, F64 low32 = loc file Symbol.
  ApiExt = 6,
  /// Callback FunctionIds of the preceding ApiBase/ApiExt: A8 = how many
  /// of D64/E64/F64 are valid (1..3).
  ApiFuncs = 7,
  /// Input-promise ObjectIds (combinators), same packing as ApiFuncs.
  ApiInputs = 8,
  /// Object creation: A8 bit0 = IsPromise, bit1 = Internal,
  /// B16 = Relation ApiKind, C32 = name Symbol, D64 = ObjectId,
  /// E64 = parent ObjectId, F64 = packed loc.
  ObjCreate = 9,
  /// Reaction result: A8 bit0 = ReturnedUndefined, bit1 = Threw,
  /// D64 = source ObjectId, E64 = derived ObjectId, F64 = ScheduleId.
  ReactionResult = 10,
  /// Promise link (adoption): D64 = returned ObjectId, E64 = derived.
  PromiseLink = 11,
  /// Loop end: A8 bit0 = TickBudgetExhausted, D64 = tick count.
  LoopEnd = 12,
  /// Tracked object released (v2): A8 bit0 = IsPromise, D64 = ObjectId.
  ObjectRelease = 13,
  /// Cluster shard of the recording loop (v3): C32 = shard id. Emitted as
  /// the first record of a stream, and only when the shard is non-zero, so
  /// single-loop traces stay byte-identical to v2.
  ShardInfo = 14,
};

/// One past the largest opcode (sizes prediction tables).
constexpr unsigned TraceOpLimit = 15;

/// One fixed-size pipeline record. See the file comment for the per-opcode
/// field assignments.
struct TraceRecord {
  uint8_t Op = 0;
  uint8_t A8 = 0;
  uint16_t B16 = 0;
  uint32_t C32 = 0;
  uint64_t D64 = 0;
  uint64_t E64 = 0;
  uint64_t F64 = 0;
};

static_assert(sizeof(TraceRecord) == 32, "records must stay 32 bytes");
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "records must be memcpy-safe for the ring and the file");

/// Packs a (file Symbol, line) source location into one u64.
inline uint64_t packLoc(SymbolId File, uint32_t Line) {
  return static_cast<uint64_t>(File) | (static_cast<uint64_t>(Line) << 32);
}
inline SymbolId packedLocFile(uint64_t P) {
  return static_cast<SymbolId>(P & 0xffffffffu);
}
inline uint32_t packedLocLine(uint64_t P) {
  return static_cast<uint32_t>(P >> 32);
}

//===----------------------------------------------------------------------===//
// Varint / zigzag primitives (v4 columns)
//===----------------------------------------------------------------------===//

/// Zigzag-maps a signed delta into an unsigned value with small magnitude
/// for small |delta|.
inline uint64_t zigzagEncode(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}
inline int64_t zigzagDecode(uint64_t U) {
  return static_cast<int64_t>(U >> 1) ^ -static_cast<int64_t>(U & 1);
}

/// Writes \p V as an LEB128 varint (1..10 bytes) at \p P, which must
/// have MaxVarintBytes writable; returns the end of the value.
inline uint8_t *writeVarint(uint8_t *P, uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<uint8_t>(V) | 0x80;
    V >>= 7;
  }
  *P++ = static_cast<uint8_t>(V);
  return P;
}

/// Reads an LEB128 varint from [P, End). Returns false on truncation or a
/// varint longer than 10 bytes; advances \p P past the value on success.
/// Largest encoded size of one varint (10 x 7 bits covers 64). Decoders
/// may use the unchecked reader while every column cursor is at least this
/// far from its end.
constexpr unsigned MaxVarintBytes = 10;

/// Bounds-unchecked LEB128 read: the caller guarantees at least
/// MaxVarintBytes readable at \p P. Hot path of the v4 frame decoder.
inline uint64_t readVarintUnchecked(const uint8_t *&P) {
  uint64_t B = *P++;
  if (B < 0x80)
    return B;
  uint64_t Acc = B & 0x7f;
  unsigned Shift = 7;
  do {
    B = *P++;
    Acc |= (B & 0x7f) << Shift;
    Shift += 7;
  } while ((B & 0x80) && Shift < 70);
  return Acc;
}

inline bool readVarint(const uint8_t *&P, const uint8_t *End, uint64_t &V) {
  // Fast path: single-byte varints dominate delta-compressed columns.
  if (P != End && *P < 0x80) {
    V = *P++;
    return true;
  }
  uint64_t Acc = 0;
  unsigned Shift = 0;
  while (P != End && Shift < 70) {
    uint8_t B = *P++;
    Acc |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (!(B & 0x80)) {
      V = Acc;
      return true;
    }
    Shift += 7;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// .agtrace files
//===----------------------------------------------------------------------===//

constexpr char TraceMagic[8] = {'A', 'G', 'T', 'R', 'A', 'C', 'E', '\0'};
/// v2 added the ObjectRelease opcode; v3 added the ShardInfo opcode for
/// cluster-mode shard streams; v4 switched the record section from raw
/// 32-byte rows to columnar delta-compressed batch frames (same records,
/// same symbol section). Only v4 is written or read: any other version
/// fails to open with "unsupported trace version".
constexpr uint32_t TraceVersion = 4;

/// On-disk header; 32 bytes like a record.
struct TraceFileHeader {
  char Magic[8];
  uint32_t Version;
  uint32_t Flags;
  uint64_t RecordCount;
  /// Absolute file offset of the symbol-table section.
  uint64_t SymtabOffset;
};

static_assert(sizeof(TraceFileHeader) == 32, "header must stay 32 bytes");

/// Number of per-record byte streams in a v4 frame: Op, Mask, A8, B16,
/// C32, D64, E64, F64.
constexpr unsigned FrameColumns = 8;
/// Default records per frame (one encode/write unit).
constexpr uint32_t FrameRecords = 4096;
/// Upper bound accepted from a frame header (corruption guard).
constexpr uint32_t FrameMaxRecords = 1 << 20;
constexpr uint32_t FrameMagic = 0x46344741;    // "AG4F"
constexpr uint32_t FrameSymMagic = 0x53344741; // "AG4S"

/// v4 frame header, followed by the 8 column byte streams back to back.
struct TraceFrameHeader {
  uint32_t Magic;
  uint32_t RecordCount;
  uint32_t ColBytes[FrameColumns];
};

static_assert(sizeof(TraceFrameHeader) == 40, "frame header layout");

/// Symbol-checkpoint frame (v4): interleaved with record frames so a trace
/// cut off mid-recording still carries every symbol its surviving records
/// reference. Each checkpoint covers the contiguous id range
/// [FirstId, FirstId + SymCount) — the symbols interned since the previous
/// checkpoint — as length-prefixed strings (u32 length + bytes), ByteLen
/// payload bytes in total. A checkpoint is written immediately before any
/// record frame that references new symbols, and the file is flushed after
/// every frame, so the on-disk prefix is always decodable up to the last
/// complete frame. finalize() still appends the full symbol table; readers
/// of finalized files simply skip checkpoint frames.
struct TraceSymFrameHeader {
  uint32_t Magic; ///< FrameSymMagic
  uint32_t SymCount;
  uint64_t FirstId;
  uint64_t ByteLen;
  uint64_t Reserved[2];
};

static_assert(sizeof(TraceSymFrameHeader) == sizeof(TraceFrameHeader),
              "every v4 frame kind shares one header size so readers can "
              "read a header blindly and dispatch on the magic");

/// If [P, P+Avail) starts with a complete symbol-checkpoint frame, sets
/// \p Consumed to its total byte size and returns true; otherwise returns
/// false (not a checkpoint, or one cut off by truncation).
inline bool skipSymFrame(const uint8_t *P, size_t Avail, size_t &Consumed) {
  if (Avail < sizeof(TraceSymFrameHeader))
    return false;
  TraceSymFrameHeader H;
  std::memcpy(&H, P, sizeof(H));
  if (H.Magic != FrameSymMagic)
    return false;
  if (H.ByteLen > Avail - sizeof(H))
    return false;
  Consumed = sizeof(H) + static_cast<size_t>(H.ByteLen);
  return true;
}

/// Mask bits (column presence flags) in frame column 1.
enum : uint8_t {
  MaskA8 = 1 << 0,
  MaskB16 = 1 << 1,
  MaskC32 = 1 << 2,
  MaskD64 = 1 << 3,
  MaskE64 = 1 << 4,
  MaskF64 = 1 << 5,
};

/// Encodes spans of records into self-contained v4 frames.
class V4FrameEncoder {
public:
  /// Appends one frame holding \p N records to \p Out.
  void encodeFrame(const TraceRecord *Records, size_t N,
                   std::vector<uint8_t> &Out);

private:
  /// Per-opcode prediction state (cleared per frame) and per-column
  /// scratch sized for the worst case of the largest frame seen, so the
  /// record loop writes through raw cursors with no capacity checks and
  /// steady-state encoding is allocation free.
  TraceRecord Prev[TraceOpLimit];
  std::unique_ptr<uint8_t[]> Col[FrameColumns];
  size_t ColRecords = 0;
};

/// Decodes one self-contained v4 frame from [P, P+Avail). On success sets
/// \p Consumed to the frame's total byte size and invokes
/// \p EmitRecord(const TraceRecord &) once per record in encode order.
/// On failure returns false and, when \p Err is non-null, explains why;
/// \p EmitRecord may have been invoked for a prefix of the records.
template <typename Fn>
bool decodeV4Frame(const uint8_t *P, size_t Avail, size_t &Consumed,
                   Fn &&EmitRecord, std::string *Err) {
  auto Fail = [&](const char *M) {
    if (Err)
      *Err = M;
    return false;
  };
  if (Avail < sizeof(TraceFrameHeader))
    return Fail("trace file truncated: frame header");
  TraceFrameHeader H;
  std::memcpy(&H, P, sizeof(H));
  if (H.Magic != FrameMagic)
    return Fail("corrupt trace: bad frame magic");
  if (H.RecordCount == 0 || H.RecordCount > FrameMaxRecords)
    return Fail("corrupt trace: implausible frame record count");
  uint64_t Payload = 0;
  for (unsigned C = 0; C != FrameColumns; ++C)
    Payload += H.ColBytes[C];
  if (Payload > Avail - sizeof(TraceFrameHeader))
    return Fail("trace file truncated: frame payload");
  // Op and Mask are raw one-byte-per-record streams.
  if (H.ColBytes[0] != H.RecordCount || H.ColBytes[1] != H.RecordCount)
    return Fail("corrupt trace: frame op/mask column size");

  const uint8_t *ColP[FrameColumns];
  const uint8_t *ColEnd[FrameColumns];
  const uint8_t *Cursor = P + sizeof(TraceFrameHeader);
  for (unsigned C = 0; C != FrameColumns; ++C) {
    ColP[C] = Cursor;
    Cursor += H.ColBytes[C];
    ColEnd[C] = Cursor;
  }

  // Hot row-major decode with the column cursors in locals (a uint8_t
  // store may alias a pointer array, so keeping cursors out of arrays lets
  // them live in registers). Bounds checks are hoisted out of the record
  // loop: one record consumes at most MaxVarintBytes per column, so
  // min over columns of remaining/MaxVarintBytes records are provably safe
  // to decode with the unchecked varint reader and zero per-record
  // compares. The run length is recomputed when a run ends; the fully
  // bounds-checked reader only runs for the frame's last few records and
  // for corrupt inputs.
  TraceRecord Prev[TraceOpLimit] = {};
  const uint8_t *OpP = ColP[0];
  const uint8_t *MaskP = ColP[1];
  const uint8_t *PA = ColP[2], *EA = ColEnd[2];
  const uint8_t *PB = ColP[3], *EB = ColEnd[3];
  const uint8_t *PC = ColP[4], *EC = ColEnd[4];
  const uint8_t *PD = ColP[5], *ED = ColEnd[5];
  const uint8_t *PE = ColP[6], *EE = ColEnd[6];
  const uint8_t *PF = ColP[7], *EF = ColEnd[7];
  uint32_t I = 0;
  while (I != H.RecordCount) {
    size_t Safe = static_cast<size_t>(EA - PA);
    auto MinRemaining = [&Safe](size_t V) {
      if (V < Safe)
        Safe = V;
    };
    MinRemaining(static_cast<size_t>(EB - PB));
    MinRemaining(static_cast<size_t>(EC - PC));
    MinRemaining(static_cast<size_t>(ED - PD));
    MinRemaining(static_cast<size_t>(EE - PE));
    MinRemaining(static_cast<size_t>(EF - PF));
    size_t SafeRun = Safe / MaxVarintBytes;
    uint32_t Left = H.RecordCount - I;
    uint32_t RunEnd =
        I + static_cast<uint32_t>(SafeRun < Left ? SafeRun : Left);
    for (; I != RunEnd; ++I) {
      uint8_t Op = OpP[I];
      uint8_t Mask = MaskP[I];
      // Unknown opcodes still parse structurally (their columns decode
      // like any other); the event decoder counts them as bad records.
      TraceRecord &R = Prev[Op < TraceOpLimit ? Op : 0];
      R.Op = Op;
      if (Mask & MaskA8)
        R.A8 = static_cast<uint8_t>(
            static_cast<uint64_t>(R.A8) +
            static_cast<uint64_t>(zigzagDecode(readVarintUnchecked(PA))));
      if (Mask & MaskB16)
        R.B16 = static_cast<uint16_t>(
            static_cast<uint64_t>(R.B16) +
            static_cast<uint64_t>(zigzagDecode(readVarintUnchecked(PB))));
      if (Mask & MaskC32)
        R.C32 = static_cast<uint32_t>(
            static_cast<uint64_t>(R.C32) +
            static_cast<uint64_t>(zigzagDecode(readVarintUnchecked(PC))));
      if (Mask & MaskD64)
        R.D64 += static_cast<uint64_t>(zigzagDecode(readVarintUnchecked(PD)));
      if (Mask & MaskE64)
        R.E64 += static_cast<uint64_t>(zigzagDecode(readVarintUnchecked(PE)));
      if (Mask & MaskF64)
        R.F64 += static_cast<uint64_t>(zigzagDecode(readVarintUnchecked(PF)));
      EmitRecord(static_cast<const TraceRecord &>(R));
    }
    if (I == H.RecordCount)
      break;
    if (SafeRun == 0) {
      // Some column is within one max-length varint of its end: decode one
      // record fully bounds-checked, then re-derive the next safe run.
      uint8_t Op = OpP[I];
      uint8_t Mask = MaskP[I];
      TraceRecord &R = Prev[Op < TraceOpLimit ? Op : 0];
      R.Op = Op;
      uint64_t U;
      if (Mask & MaskA8) {
        if (!readVarint(PA, EA, U))
          return Fail("corrupt trace: A8 column overrun");
        R.A8 = static_cast<uint8_t>(static_cast<uint64_t>(R.A8) +
                                    static_cast<uint64_t>(zigzagDecode(U)));
      }
      if (Mask & MaskB16) {
        if (!readVarint(PB, EB, U))
          return Fail("corrupt trace: B16 column overrun");
        R.B16 = static_cast<uint16_t>(static_cast<uint64_t>(R.B16) +
                                      static_cast<uint64_t>(zigzagDecode(U)));
      }
      if (Mask & MaskC32) {
        if (!readVarint(PC, EC, U))
          return Fail("corrupt trace: C32 column overrun");
        R.C32 = static_cast<uint32_t>(static_cast<uint64_t>(R.C32) +
                                      static_cast<uint64_t>(zigzagDecode(U)));
      }
      if (Mask & MaskD64) {
        if (!readVarint(PD, ED, U))
          return Fail("corrupt trace: D64 column overrun");
        R.D64 += static_cast<uint64_t>(zigzagDecode(U));
      }
      if (Mask & MaskE64) {
        if (!readVarint(PE, EE, U))
          return Fail("corrupt trace: E64 column overrun");
        R.E64 += static_cast<uint64_t>(zigzagDecode(U));
      }
      if (Mask & MaskF64) {
        if (!readVarint(PF, EF, U))
          return Fail("corrupt trace: F64 column overrun");
        R.F64 += static_cast<uint64_t>(zigzagDecode(U));
      }
      EmitRecord(static_cast<const TraceRecord &>(R));
      ++I;
    }
  }
  Consumed = sizeof(TraceFrameHeader) + static_cast<size_t>(Payload);
  return true;
}

/// Streams records into an `.agtrace` file, batched into columnar frames.
/// A symbol-checkpoint frame precedes any record frame that references new
/// symbols and the file is flushed after every frame, so a recording cut
/// off by a crash keeps a decodable frame-aligned prefix. finalize()
/// appends the symbol table (everything interned so far, so every id any
/// record references is covered) and patches the header.
class TraceFileWriter {
public:
  TraceFileWriter() = default;
  ~TraceFileWriter();

  TraceFileWriter(const TraceFileWriter &) = delete;
  TraceFileWriter &operator=(const TraceFileWriter &) = delete;

  /// Opens \p Path and writes a placeholder header. Returns false on I/O
  /// failure.
  bool open(const std::string &Path);

  bool isOpen() const { return File != nullptr; }

  /// Appends \p N records. Returns false on I/O failure.
  bool append(const TraceRecord *Records, size_t N);

  /// Writes the symbol section, patches the header, and closes the file.
  /// Returns false on I/O failure (the file is closed either way).
  bool finalize();

  uint64_t recordCount() const { return Count; }

  /// Bytes of the record frames written so far (excludes the header, the
  /// symbol checkpoints and section, and any still-buffered records).
  uint64_t recordBytes() const { return RecordSectionBytes; }

private:
  bool flushFrame();
  bool writeSymCheckpoint();

  std::FILE *File = nullptr;
  uint64_t Count = 0;
  uint64_t RecordSectionBytes = 0;
  /// High-water mark of symbol ids already covered by a checkpoint.
  uint64_t CkptSyms = 0;

  /// Batching state.
  std::vector<TraceRecord> Pending;
  std::vector<uint8_t> FrameBuf;
  V4FrameEncoder Encoder;
};

/// Validates an `.agtrace` header + symbol section against the file size
/// and re-interns the symbols. \p Bytes/\p Size cover the whole file image.
/// Returns false with \p Err set on any structural problem, including a
/// version other than TraceVersion ("unsupported trace version").
bool validateTraceImage(const uint8_t *Bytes, uint64_t Size,
                        TraceFileHeader &Header,
                        std::vector<SymbolId> &Remap, std::string *Err);

/// One record frame located by a pre-scan of a v4 record section. The scan
/// reads only frame headers, so locating every frame of a trace is O(frame
/// count), not O(record count) — the frames can then be decoded in any
/// order (they are self-contained) while being *applied* in this order.
struct TraceFrameRef {
  /// Byte offset of the frame header within the scanned image.
  uint64_t Offset = 0;
  /// Total frame size: header plus the eight column streams.
  uint32_t Bytes = 0;
  /// Record count from the frame header.
  uint32_t Records = 0;
  /// Symbols visible when this frame is applied: the remap prefix length
  /// accumulated from the checkpoint frames preceding it (recovery scans;
  /// scans of finalized files leave it 0 — the full symbol section
  /// supersedes the checkpoints).
  uint32_t RemapSize = 0;
};

/// Locates every record frame of a *validated* v4 record section
/// [P, P+Avail) holding \p RecordCount records in total. Symbol-checkpoint
/// frames are skipped (the finalized symbol section supersedes them).
/// Structural validation only — frame magics, header plausibility, and
/// column-size bounds; the per-record varint streams are validated when
/// the frames are decoded. Returns false with \p Err on any structural
/// problem (a validated image should never trip one).
bool scanV4Frames(const uint8_t *P, size_t Avail, uint64_t RecordCount,
                  std::vector<TraceFrameRef> &Out, std::string *Err = nullptr);

/// The recovery twin of scanV4Frames, for a v4 image whose strict
/// validation failed — a recording cut off by a crash (no final symbol
/// table, header counts still zero), or a finalized file with a damaged
/// tail. Walks frames from the end of the header: symbol-checkpoint frames
/// extend \p Remap (re-interning into this process's table), record
/// frames are located, each tagged with the remap prefix length in force
/// when it is applied. Stops at the first torn or structurally corrupt
/// frame and sets \p DroppedBytes to the bytes after the last located
/// frame. A located frame whose varint streams later fail to decode must
/// be discarded along with everything after it (the clean-prefix
/// guarantee).
///
/// Returns true when the image is recoverable v4 — intact 8-byte magic and
/// a v4 version field (a cut inside the 32-byte header counts, with an
/// empty prefix) — even if zero frames survive. Returns false with \p Err
/// set when the image is not an `.agtrace` at all or has another version.
bool scanV4Recovery(const uint8_t *Bytes, uint64_t Size,
                    std::vector<TraceFrameRef> &Out,
                    std::vector<SymbolId> &Remap, uint64_t &DroppedBytes,
                    std::string *Err = nullptr);

/// Memory-maps an `.agtrace` file read-only and exposes the validated
/// header, symbol remap, and the raw record-section bytes for zero-copy
/// decoding.
class TraceMmapReader {
public:
  TraceMmapReader() = default;
  ~TraceMmapReader();

  TraceMmapReader(const TraceMmapReader &) = delete;
  TraceMmapReader &operator=(const TraceMmapReader &) = delete;

  /// openRaw() followed by validate(); unmaps again if validation fails.
  bool open(const std::string &Path, std::string *Err = nullptr);

  /// Maps \p Path without any validation. data()/size() are usable at
  /// once; header()/symbolRemap()/recordData() only after validate().
  bool openRaw(const std::string &Path, std::string *Err = nullptr);

  /// Validates the mapped image (validateTraceImage), filling header() and
  /// symbolRemap(). The mapping stays in place either way, so a failed
  /// image can still go to a recovery scan.
  bool validate(std::string *Err = nullptr);

  bool isOpen() const { return Base != nullptr; }

  /// The whole mapped image (valid after open or openRaw).
  const uint8_t *data() const { return Base; }
  uint64_t size() const { return Size; }

  const TraceFileHeader &header() const { return Header; }
  const std::vector<SymbolId> &symbolRemap() const { return Remap; }

  /// The record section: [recordData(), recordData() + recordByteSize()).
  const uint8_t *recordData() const {
    return Base + sizeof(TraceFileHeader);
  }
  uint64_t recordByteSize() const {
    return Header.SymtabOffset - sizeof(TraceFileHeader);
  }

private:
  void unmap();

  const uint8_t *Base = nullptr;
  uint64_t Size = 0;
  TraceFileHeader Header = {};
  std::vector<SymbolId> Remap;
};

} // namespace trace
} // namespace asyncg

#endif // ASYNCG_SUPPORT_TRACEFORMAT_H
