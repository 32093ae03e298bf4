//===- TraceFormat.cpp - Compact binary trace records -------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/TraceFormat.h"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define ASYNCG_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace asyncg;
using namespace asyncg::trace;

static bool fail(std::string *Err, const char *Message) {
  if (Err)
    *Err = Message;
  return false;
}

//===----------------------------------------------------------------------===//
// V4FrameEncoder
//===----------------------------------------------------------------------===//

void V4FrameEncoder::encodeFrame(const TraceRecord *Records, size_t N,
                                 std::vector<uint8_t> &Out) {
  for (TraceRecord &P : Prev)
    P = TraceRecord();
  if (N > ColRecords) {
    // Op and mask take one byte per record, the value columns at most one
    // varint each.
    for (unsigned C = 0; C != FrameColumns; ++C)
      Col[C].reset(new uint8_t[C < 2 ? N : N * MaxVarintBytes]);
    ColRecords = N;
  }

  uint8_t *OpP = Col[0].get(), *MaskP = Col[1].get();
  uint8_t *PA = Col[2].get(), *PB = Col[3].get(), *PC = Col[4].get();
  uint8_t *PD = Col[5].get(), *PE = Col[6].get(), *PF = Col[7].get();
  for (size_t I = 0; I != N; ++I) {
    const TraceRecord &R = Records[I];
    uint8_t Op = R.Op;
    TraceRecord &P = Prev[Op < TraceOpLimit ? Op : 0];
    uint8_t Mask = 0;
    if (R.A8 != P.A8) {
      Mask |= MaskA8;
      PA = writeVarint(PA, zigzagEncode(static_cast<int64_t>(R.A8) -
                                        static_cast<int64_t>(P.A8)));
    }
    if (R.B16 != P.B16) {
      Mask |= MaskB16;
      PB = writeVarint(PB, zigzagEncode(static_cast<int64_t>(R.B16) -
                                        static_cast<int64_t>(P.B16)));
    }
    if (R.C32 != P.C32) {
      Mask |= MaskC32;
      PC = writeVarint(PC, zigzagEncode(static_cast<int64_t>(R.C32) -
                                        static_cast<int64_t>(P.C32)));
    }
    if (R.D64 != P.D64) {
      Mask |= MaskD64;
      PD = writeVarint(PD, zigzagEncode(static_cast<int64_t>(R.D64 - P.D64)));
    }
    if (R.E64 != P.E64) {
      Mask |= MaskE64;
      PE = writeVarint(PE, zigzagEncode(static_cast<int64_t>(R.E64 - P.E64)));
    }
    if (R.F64 != P.F64) {
      Mask |= MaskF64;
      PF = writeVarint(PF, zigzagEncode(static_cast<int64_t>(R.F64 - P.F64)));
    }
    OpP[I] = Op;
    MaskP[I] = Mask;
    P = R;
  }

  const uint8_t *End[FrameColumns] = {OpP + N, MaskP + N, PA, PB,
                                      PC,      PD,        PE, PF};
  TraceFrameHeader H;
  H.Magic = FrameMagic;
  H.RecordCount = static_cast<uint32_t>(N);
  for (unsigned C = 0; C != FrameColumns; ++C)
    H.ColBytes[C] = static_cast<uint32_t>(End[C] - Col[C].get());
  const auto *HBytes = reinterpret_cast<const uint8_t *>(&H);
  Out.insert(Out.end(), HBytes, HBytes + sizeof(H));
  for (unsigned C = 0; C != FrameColumns; ++C) {
    const uint8_t *Begin = Col[C].get();
    Out.insert(Out.end(), Begin, End[C]);
  }
}

//===----------------------------------------------------------------------===//
// TraceFileWriter
//===----------------------------------------------------------------------===//

TraceFileWriter::~TraceFileWriter() {
  if (File)
    std::fclose(File);
}

bool TraceFileWriter::open(const std::string &Path, uint32_t Ver) {
  if (Ver < TraceMinVersion || Ver > TraceVersion)
    return false;
  File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  Count = 0;
  RecordSectionBytes = 0;
  Version = Ver;
  CkptSyms = 0;
  Pending.clear();
  TraceFileHeader H = {};
  std::memcpy(H.Magic, TraceMagic, sizeof(H.Magic));
  H.Version = Version;
  return std::fwrite(&H, sizeof(H), 1, File) == 1;
}

bool TraceFileWriter::writeSymCheckpoint() {
  SymbolTable &Tab = symtab();
  uint64_t Now = Tab.size();
  if (Now == CkptSyms)
    return true;
  TraceSymFrameHeader H = {};
  H.Magic = FrameSymMagic;
  H.SymCount = static_cast<uint32_t>(Now - CkptSyms);
  H.FirstId = CkptSyms;
  uint64_t ByteLen = 0;
  for (uint64_t Id = CkptSyms; Id != Now; ++Id)
    ByteLen += sizeof(uint32_t) + Tab.view(static_cast<SymbolId>(Id)).size();
  H.ByteLen = ByteLen;
  if (std::fwrite(&H, sizeof(H), 1, File) != 1)
    return false;
  for (uint64_t Id = CkptSyms; Id != Now; ++Id) {
    std::string_view S = Tab.view(static_cast<SymbolId>(Id));
    uint32_t Len = static_cast<uint32_t>(S.size());
    if (std::fwrite(&Len, sizeof(Len), 1, File) != 1 ||
        (Len != 0 && std::fwrite(S.data(), 1, Len, File) != Len))
      return false;
  }
  // Checkpoint bytes are durability overhead, not record payload, so they
  // stay out of recordBytes() (the compression metric).
  CkptSyms = Now;
  return true;
}

bool TraceFileWriter::flushFrame() {
  if (Pending.empty())
    return true;
  // Symbols first: a recovery scan replays frames front to back, so every
  // id the frame references must already be on disk when the frame is.
  if (Checkpoints && !writeSymCheckpoint())
    return false;
  FrameBuf.clear();
  Encoder.encodeFrame(Pending.data(), Pending.size(), FrameBuf);
  Pending.clear();
  if (std::fwrite(FrameBuf.data(), 1, FrameBuf.size(), File) !=
      FrameBuf.size())
    return false;
  RecordSectionBytes += FrameBuf.size();
  // Frame-aligned flush checkpoint: after this line the on-disk prefix is
  // recoverable up to and including this frame even if the process dies.
  if (Checkpoints && std::fflush(File) != 0)
    return false;
  return true;
}

bool TraceFileWriter::append(const TraceRecord *Records, size_t N) {
  if (!File || N == 0)
    return File != nullptr;
  if (Version > TraceLastRawVersion) {
    Count += N;
    while (N != 0) {
      size_t Take = FrameRecords - Pending.size();
      if (Take > N)
        Take = N;
      Pending.insert(Pending.end(), Records, Records + Take);
      Records += Take;
      N -= Take;
      if (Pending.size() == FrameRecords && !flushFrame())
        return false;
    }
    return true;
  }
  if (std::fwrite(Records, sizeof(TraceRecord), N, File) != N)
    return false;
  Count += N;
  RecordSectionBytes += N * sizeof(TraceRecord);
  return true;
}

bool TraceFileWriter::finalize() {
  if (!File)
    return false;
  bool Ok = true;
  if (Version > TraceLastRawVersion)
    Ok = flushFrame();
  long SymtabOffset = std::ftell(File);
  Ok = Ok && SymtabOffset > 0;

  // Dump the whole symbol table: every id a record can reference is below
  // the current size, and for trace-sized workloads the section is small.
  SymbolTable &Tab = symtab();
  uint64_t SymCount = Tab.size();
  Ok = Ok && std::fwrite(&SymCount, sizeof(SymCount), 1, File) == 1;
  for (SymbolId Id = 0; Ok && Id < SymCount; ++Id) {
    std::string_view S = Tab.view(Id);
    uint32_t Len = static_cast<uint32_t>(S.size());
    Ok = std::fwrite(&Len, sizeof(Len), 1, File) == 1 &&
         (Len == 0 || std::fwrite(S.data(), 1, Len, File) == Len);
  }

  if (Ok) {
    TraceFileHeader H = {};
    std::memcpy(H.Magic, TraceMagic, sizeof(H.Magic));
    H.Version = Version;
    H.RecordCount = Count;
    H.SymtabOffset = static_cast<uint64_t>(SymtabOffset);
    Ok = std::fseek(File, 0, SEEK_SET) == 0 &&
         std::fwrite(&H, sizeof(H), 1, File) == 1;
  }
  Ok = std::fclose(File) == 0 && Ok;
  File = nullptr;
  return Ok;
}

//===----------------------------------------------------------------------===//
// Shared image validation
//===----------------------------------------------------------------------===//

bool trace::validateTraceImage(const uint8_t *Bytes, uint64_t Size,
                               TraceFileHeader &Header,
                               std::vector<SymbolId> &Remap,
                               std::string *Err) {
  if (Size < sizeof(TraceFileHeader))
    return fail(Err, "trace file truncated: no header");
  std::memcpy(&Header, Bytes, sizeof(Header));
  if (std::memcmp(Header.Magic, TraceMagic, sizeof(Header.Magic)) != 0)
    return fail(Err, "bad magic: not an .agtrace file");
  if (Header.Version < TraceMinVersion || Header.Version > TraceVersion)
    return fail(Err, "unsupported trace version");
  if (Header.SymtabOffset < sizeof(TraceFileHeader) ||
      Header.SymtabOffset > Size)
    return fail(Err, "trace file truncated: no symbol section");
  if (Header.Version <= TraceLastRawVersion) {
    uint64_t RecordBytes = Header.SymtabOffset - sizeof(TraceFileHeader);
    if (RecordBytes / sizeof(TraceRecord) < Header.RecordCount)
      return fail(Err, "trace file truncated: record section");
  }

  // Symbol section: count + length-prefixed strings, every length checked
  // against the bytes actually present (a corrupt length must not drive a
  // multi-gigabyte allocation).
  const uint8_t *P = Bytes + Header.SymtabOffset;
  const uint8_t *End = Bytes + Size;
  if (End - P < static_cast<ptrdiff_t>(sizeof(uint64_t)))
    return fail(Err, "trace file truncated: symbol count");
  uint64_t SymCount;
  std::memcpy(&SymCount, P, sizeof(SymCount));
  P += sizeof(SymCount);
  // Each symbol needs at least its 4-byte length prefix.
  if (SymCount > static_cast<uint64_t>(End - P) / sizeof(uint32_t))
    return fail(Err, "corrupt trace: implausible symbol count");
  Remap.clear();
  Remap.reserve(static_cast<size_t>(SymCount));
  std::string Scratch;
  for (uint64_t I = 0; I != SymCount; ++I) {
    if (End - P < static_cast<ptrdiff_t>(sizeof(uint32_t)))
      return fail(Err, "trace file truncated: symbol length");
    uint32_t Len;
    std::memcpy(&Len, P, sizeof(Len));
    P += sizeof(Len);
    if (Len > static_cast<uint64_t>(End - P))
      return fail(Err, "trace file truncated: symbol bytes");
    Scratch.assign(reinterpret_cast<const char *>(P), Len);
    P += Len;
    Remap.push_back(symtab().intern(Scratch));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Torn-tail prefix recovery
//===----------------------------------------------------------------------===//

/// Reads the symbol-checkpoint frame at \p Bytes + \p Off (\p Avail bytes
/// remaining), re-interning its strings and appending the new ids to
/// \p Remap. On success sets \p Consumed to the frame's total size. On a
/// torn or corrupt checkpoint returns false with \p Stop describing why;
/// symbols already re-interned before the damage are harmless. Shared by
/// recoverV4Prefix (decode-as-you-scan) and scanV4Recovery (locate-only).
static bool readSymCheckpoint(const uint8_t *Bytes, uint64_t Off,
                              uint64_t Avail, std::vector<SymbolId> &Remap,
                              uint64_t &Consumed, std::string &Stop) {
  TraceSymFrameHeader SH;
  std::memcpy(&SH, Bytes + Off, sizeof(SH));
  if (SH.ByteLen > Avail - sizeof(SH)) {
    Stop = "trace file truncated: symbol checkpoint";
    return false;
  }
  if (SH.FirstId != Remap.size()) {
    Stop = "corrupt trace: checkpoint ids not contiguous";
    return false;
  }
  const uint8_t *P = Bytes + Off + sizeof(SH);
  const uint8_t *End = P + SH.ByteLen;
  std::string Scratch;
  for (uint32_t I = 0; I != SH.SymCount; ++I) {
    if (End - P < static_cast<ptrdiff_t>(sizeof(uint32_t))) {
      Stop = "corrupt trace: checkpoint symbol bytes";
      return false;
    }
    uint32_t Len;
    std::memcpy(&Len, P, sizeof(Len));
    P += sizeof(Len);
    if (Len > static_cast<uint64_t>(End - P)) {
      Stop = "corrupt trace: checkpoint symbol bytes";
      return false;
    }
    Scratch.assign(reinterpret_cast<const char *>(P), Len);
    P += Len;
    Remap.push_back(symtab().intern(Scratch));
  }
  if (P != End) {
    Stop = "corrupt trace: checkpoint symbol bytes";
    return false;
  }
  Consumed = sizeof(SH) + SH.ByteLen;
  return true;
}

/// Structural validation of the record-frame header at \p P: the checks
/// decodeV4Frame performs before touching any varint stream. On success
/// sets the frame's total size and record count. Lets a pre-scan locate
/// frame boundaries in O(1) per frame without decoding the columns.
static bool checkFrameHeader(const uint8_t *P, size_t Avail,
                             size_t &TotalBytes, uint32_t &Records,
                             std::string *Err) {
  if (Avail < sizeof(TraceFrameHeader))
    return fail(Err, "trace file truncated: frame header");
  TraceFrameHeader H;
  std::memcpy(&H, P, sizeof(H));
  if (H.Magic != FrameMagic)
    return fail(Err, "corrupt trace: bad frame magic");
  if (H.RecordCount == 0 || H.RecordCount > FrameMaxRecords)
    return fail(Err, "corrupt trace: implausible frame record count");
  uint64_t Payload = 0;
  for (unsigned C = 0; C != FrameColumns; ++C)
    Payload += H.ColBytes[C];
  if (Payload > Avail - sizeof(TraceFrameHeader))
    return fail(Err, "trace file truncated: frame payload");
  if (H.ColBytes[0] != H.RecordCount || H.ColBytes[1] != H.RecordCount)
    return fail(Err, "corrupt trace: frame op/mask column size");
  TotalBytes = sizeof(TraceFrameHeader) + static_cast<size_t>(Payload);
  Records = H.RecordCount;
  return true;
}

bool trace::scanV4Frames(const uint8_t *P, size_t Avail, uint64_t RecordCount,
                         std::vector<TraceFrameRef> &Out, std::string *Err) {
  Out.clear();
  uint64_t Records = 0;
  uint64_t Off = 0;
  while (Records < RecordCount) {
    if (Off >= Avail)
      return fail(Err, "trace file truncated: missing frames");
    size_t Skip = 0;
    if (skipSymFrame(P + Off, Avail - static_cast<size_t>(Off), Skip)) {
      // Interleaved symbol checkpoint: superseded by the finalized symbol
      // section, so a strict scan only steps over it.
      Off += Skip;
      continue;
    }
    TraceFrameRef F;
    size_t Bytes = 0;
    uint32_t N = 0;
    if (!checkFrameHeader(P + Off, Avail - static_cast<size_t>(Off), Bytes, N,
                          Err))
      return false;
    F.Offset = Off;
    F.Bytes = static_cast<uint32_t>(Bytes);
    F.Records = N;
    Out.push_back(F);
    Records += N;
    Off += Bytes;
  }
  if (Records != RecordCount)
    return fail(Err, "corrupt trace: frame record counts disagree with header");
  return true;
}

bool trace::scanV4Recovery(const uint8_t *Bytes, uint64_t Size,
                           std::vector<TraceFrameRef> &Out,
                           std::vector<SymbolId> &Remap,
                           TraceRecoveryInfo *Info, std::string *Err) {
  TraceRecoveryInfo Local;
  TraceRecoveryInfo &R = Info ? *Info : Local;
  R = TraceRecoveryInfo();
  Out.clear();
  Remap.clear();
  if (Size < sizeof(TraceMagic) ||
      std::memcmp(Bytes, TraceMagic, sizeof(TraceMagic)) != 0)
    return fail(Err, "bad magic: not an .agtrace file");
  if (Size < sizeof(TraceFileHeader)) {
    R.DroppedBytes = Size;
    R.TailError = "trace file truncated: mid-header";
    return true;
  }
  TraceFileHeader H;
  std::memcpy(&H, Bytes, sizeof(H));
  if (H.Version <= TraceLastRawVersion || H.Version > TraceVersion)
    return fail(Err, "trace version has no recovery checkpoints");

  uint64_t Off = sizeof(TraceFileHeader);
  std::string Stop;
  while (Off < Size) {
    uint64_t Avail = Size - Off;
    uint32_t Magic = 0;
    if (Avail >= sizeof(Magic))
      std::memcpy(&Magic, Bytes + Off, sizeof(Magic));
    if (Avail < sizeof(TraceFrameHeader)) {
      Stop = "trace file truncated: frame header";
      break;
    }
    if (Magic == FrameSymMagic) {
      uint64_t Consumed = 0;
      if (!readSymCheckpoint(Bytes, Off, Avail, Remap, Consumed, Stop))
        break;
      Off += Consumed;
      continue;
    }
    std::string FrameErr;
    TraceFrameRef F;
    size_t FrameBytes = 0;
    uint32_t N = 0;
    if (!checkFrameHeader(Bytes + Off, static_cast<size_t>(Avail), FrameBytes,
                          N, &FrameErr)) {
      Stop = FrameErr;
      break;
    }
    F.Offset = Off;
    F.Bytes = static_cast<uint32_t>(FrameBytes);
    F.Records = N;
    F.RemapSize = static_cast<uint32_t>(Remap.size());
    Out.push_back(F);
    ++R.Frames;
    R.Records += N;
    R.RecordBytes += FrameBytes;
    Off += FrameBytes;
  }
  R.DroppedBytes = Size - Off;
  R.TailError = Stop;
  return true;
}

bool trace::recoverV4Prefix(
    const uint8_t *Bytes, uint64_t Size, std::vector<SymbolId> &Remap,
    const std::function<void(const TraceRecord *, size_t)> &OnFrame,
    TraceRecoveryInfo *Info, std::string *Err) {
  TraceRecoveryInfo Local;
  TraceRecoveryInfo &R = Info ? *Info : Local;
  R = TraceRecoveryInfo();
  Remap.clear();
  if (Size < sizeof(TraceMagic) ||
      std::memcmp(Bytes, TraceMagic, sizeof(TraceMagic)) != 0)
    return fail(Err, "bad magic: not an .agtrace file");
  if (Size < sizeof(TraceFileHeader)) {
    // Cut inside the 32-byte header: the recording died before any frame
    // reached disk. The clean prefix is empty — still a successful
    // recovery, just of nothing.
    R.DroppedBytes = Size;
    R.TailError = "trace file truncated: mid-header";
    return true;
  }
  TraceFileHeader H;
  std::memcpy(&H, Bytes, sizeof(H));
  if (H.Version <= TraceLastRawVersion || H.Version > TraceVersion)
    return fail(Err, "trace version has no recovery checkpoints");

  uint64_t Off = sizeof(TraceFileHeader);
  std::vector<TraceRecord> Buf;
  std::string Stop;
  while (Off < Size) {
    uint64_t Avail = Size - Off;
    uint32_t Magic = 0;
    if (Avail >= sizeof(Magic))
      std::memcpy(&Magic, Bytes + Off, sizeof(Magic));
    if (Avail < sizeof(TraceFrameHeader)) {
      Stop = "trace file truncated: frame header";
      break;
    }
    if (Magic == FrameSymMagic) {
      // Stops before any frame that would reference ids the damaged
      // checkpoint failed to deliver; symbols already re-interned are
      // harmless.
      uint64_t Consumed = 0;
      if (!readSymCheckpoint(Bytes, Off, Avail, Remap, Consumed, Stop))
        break;
      Off += Consumed;
      continue;
    }
    if (Magic != FrameMagic) {
      Stop = "corrupt trace: bad frame magic";
      break;
    }
    // Decode the whole frame into a scratch buffer first: a frame that
    // fails mid-decode is dropped entirely, so the caller only ever sees
    // complete frames (the clean-prefix guarantee).
    Buf.clear();
    size_t Consumed = 0;
    std::string FrameErr;
    if (!decodeV4Frame(
            Bytes + Off, static_cast<size_t>(Avail), Consumed,
            [&Buf](const TraceRecord &Rec) { Buf.push_back(Rec); },
            &FrameErr)) {
      Stop = FrameErr;
      break;
    }
    OnFrame(Buf.data(), Buf.size());
    ++R.Frames;
    R.Records += Buf.size();
    R.RecordBytes += Consumed;
    Off += Consumed;
  }
  R.DroppedBytes = Size - Off;
  R.TailError = Stop;
  return true;
}

//===----------------------------------------------------------------------===//
// TraceFileReader
//===----------------------------------------------------------------------===//

TraceFileReader::~TraceFileReader() {
  if (File)
    std::fclose(File);
}

bool TraceFileReader::open(const std::string &Path, std::string *Err) {
  File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return fail(Err, "cannot open trace file");
  if (std::fseek(File, 0, SEEK_END) != 0)
    return fail(Err, "trace file seek failed");
  long Sz = std::ftell(File);
  if (Sz < 0)
    return fail(Err, "trace file seek failed");
  FileSize = static_cast<uint64_t>(Sz);
  if (std::fseek(File, 0, SEEK_SET) != 0 ||
      std::fread(&Header, sizeof(Header), 1, File) != 1)
    return fail(Err, "trace file truncated: no header");
  if (std::memcmp(Header.Magic, TraceMagic, sizeof(Header.Magic)) != 0)
    return fail(Err, "bad magic: not an .agtrace file");
  if (Header.Version < TraceMinVersion || Header.Version > TraceVersion)
    return fail(Err, "unsupported trace version");
  if (Header.SymtabOffset < sizeof(TraceFileHeader) ||
      Header.SymtabOffset > FileSize)
    return fail(Err, "trace file truncated: no symbol section");
  if (Header.Version <= TraceLastRawVersion) {
    uint64_t RecordBytes = Header.SymtabOffset - sizeof(TraceFileHeader);
    if (RecordBytes / sizeof(TraceRecord) < Header.RecordCount)
      return fail(Err, "trace file truncated: record section");
  }

  // Load the symbol section and re-intern into this process's table.
  if (std::fseek(File, static_cast<long>(Header.SymtabOffset), SEEK_SET) != 0)
    return fail(Err, "trace file truncated: no symbol section");
  uint64_t SymCount = 0;
  if (std::fread(&SymCount, sizeof(SymCount), 1, File) != 1)
    return fail(Err, "trace file truncated: symbol count");
  uint64_t SymBytesLeft = FileSize - Header.SymtabOffset - sizeof(SymCount);
  if (SymCount > SymBytesLeft / sizeof(uint32_t))
    return fail(Err, "corrupt trace: implausible symbol count");
  Remap.clear();
  Remap.reserve(static_cast<size_t>(SymCount));
  std::string Scratch;
  for (uint64_t I = 0; I != SymCount; ++I) {
    uint32_t Len = 0;
    if (std::fread(&Len, sizeof(Len), 1, File) != 1)
      return fail(Err, "trace file truncated: symbol length");
    SymBytesLeft -= sizeof(Len);
    if (Len > SymBytesLeft)
      return fail(Err, "trace file truncated: symbol bytes");
    Scratch.resize(Len);
    if (Len != 0 && std::fread(Scratch.data(), 1, Len, File) != Len)
      return fail(Err, "trace file truncated: symbol bytes");
    SymBytesLeft -= Len;
    Remap.push_back(symtab().intern(Scratch));
  }

  if (std::fseek(File, sizeof(TraceFileHeader), SEEK_SET) != 0)
    return fail(Err, "trace file seek failed");
  ReadSoFar = 0;
  RecordBytesLeft = Header.SymtabOffset - sizeof(TraceFileHeader);
  Decoded.clear();
  DecodedPos = 0;
  ReadError.clear();
  return true;
}

bool TraceFileReader::loadNextFrame() {
  TraceFrameHeader FH;
  for (;;) {
    if (RecordBytesLeft < sizeof(FH)) {
      ReadError = "trace file truncated: frame header";
      return false;
    }
    if (std::fread(&FH, sizeof(FH), 1, File) != 1) {
      ReadError = "trace file truncated: frame header";
      return false;
    }
    RecordBytesLeft -= sizeof(FH);
    if (FH.Magic != FrameSymMagic)
      break;
    // Symbol checkpoint: redundant in a finalized file (the trailing
    // symbol section supersedes it) — skip the payload.
    TraceSymFrameHeader SH;
    std::memcpy(&SH, &FH, sizeof(SH));
    if (SH.ByteLen > RecordBytesLeft ||
        std::fseek(File, static_cast<long>(SH.ByteLen), SEEK_CUR) != 0) {
      ReadError = "trace file truncated: symbol checkpoint";
      return false;
    }
    RecordBytesLeft -= SH.ByteLen;
  }
  if (FH.Magic != FrameMagic) {
    ReadError = "corrupt trace: bad frame magic";
    return false;
  }
  if (FH.RecordCount == 0 || FH.RecordCount > FrameMaxRecords) {
    ReadError = "corrupt trace: implausible frame record count";
    return false;
  }
  uint64_t Payload = 0;
  for (unsigned C = 0; C != FrameColumns; ++C)
    Payload += FH.ColBytes[C];
  if (Payload > RecordBytesLeft) {
    ReadError = "trace file truncated: frame payload";
    return false;
  }
  // Re-assemble header + payload so the shared frame decoder sees one
  // contiguous image.
  FrameBuf.resize(sizeof(FH) + static_cast<size_t>(Payload));
  std::memcpy(FrameBuf.data(), &FH, sizeof(FH));
  if (Payload != 0 &&
      std::fread(FrameBuf.data() + sizeof(FH), 1,
                 static_cast<size_t>(Payload), File) != Payload) {
    ReadError = "trace file truncated: frame payload";
    return false;
  }
  RecordBytesLeft -= Payload;

  Decoded.clear();
  Decoded.reserve(FH.RecordCount);
  DecodedPos = 0;
  size_t Consumed = 0;
  return decodeV4Frame(
      FrameBuf.data(), FrameBuf.size(), Consumed,
      [this](const TraceRecord &R) { Decoded.push_back(R); }, &ReadError);
}

size_t TraceFileReader::read(TraceRecord *Out, size_t Max) {
  if (!File || ReadSoFar >= Header.RecordCount || !ReadError.empty())
    return 0;
  uint64_t Left = Header.RecordCount - ReadSoFar;
  size_t Want = Max < Left ? Max : static_cast<size_t>(Left);

  if (Header.Version <= TraceLastRawVersion) {
    size_t Got = std::fread(Out, sizeof(TraceRecord), Want, File);
    ReadSoFar += Got;
    return Got;
  }

  size_t Total = 0;
  while (Total != Want) {
    if (DecodedPos == Decoded.size() && !loadNextFrame())
      break;
    size_t Avail = Decoded.size() - DecodedPos;
    size_t Take = Want - Total < Avail ? Want - Total : Avail;
    std::memcpy(Out + Total, Decoded.data() + DecodedPos,
                Take * sizeof(TraceRecord));
    DecodedPos += Take;
    Total += Take;
  }
  ReadSoFar += Total;
  return Total;
}

//===----------------------------------------------------------------------===//
// TraceMmapReader
//===----------------------------------------------------------------------===//

TraceMmapReader::~TraceMmapReader() {
#if ASYNCG_HAVE_MMAP
  if (Base)
    ::munmap(const_cast<uint8_t *>(Base), static_cast<size_t>(Size));
#endif
}

bool TraceMmapReader::open(const std::string &Path, std::string *Err) {
#if ASYNCG_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return fail(Err, "cannot open trace file");
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    return fail(Err, "cannot stat trace file");
  }
  Size = static_cast<uint64_t>(St.st_size);
  if (Size < sizeof(TraceFileHeader)) {
    ::close(Fd);
    return fail(Err, "trace file truncated: no header");
  }
  // The whole (small, columnar) file is consumed front to back exactly
  // once, so populate the mapping in one batched read up front instead of
  // taking a synchronous page fault per 4K of frame data on a cold cache.
  int Flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  Flags |= MAP_POPULATE;
#endif
  void *Map =
      ::mmap(nullptr, static_cast<size_t>(Size), PROT_READ, Flags, Fd, 0);
  ::close(Fd);
  if (Map == MAP_FAILED)
    return fail(Err, "cannot mmap trace file");
  ::madvise(Map, static_cast<size_t>(Size), MADV_SEQUENTIAL);
  Base = static_cast<const uint8_t *>(Map);
  if (!validateTraceImage(Base, Size, Header, Remap, Err)) {
    ::munmap(Map, static_cast<size_t>(Size));
    Base = nullptr;
    return false;
  }
  return true;
#else
  (void)Path;
  return fail(Err, "mmap unavailable on this platform");
#endif
}

bool TraceMmapReader::openRaw(const std::string &Path, std::string *Err) {
#if ASYNCG_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return fail(Err, "cannot open trace file");
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    return fail(Err, "cannot stat trace file");
  }
  Size = static_cast<uint64_t>(St.st_size);
  if (Size == 0) {
    ::close(Fd);
    return fail(Err, "trace file truncated: no header");
  }
  void *Map =
      ::mmap(nullptr, static_cast<size_t>(Size), PROT_READ, MAP_PRIVATE, Fd, 0);
  ::close(Fd);
  if (Map == MAP_FAILED)
    return fail(Err, "cannot mmap trace file");
  Base = static_cast<const uint8_t *>(Map);
  return true;
#else
  (void)Path;
  return fail(Err, "mmap unavailable on this platform");
#endif
}
