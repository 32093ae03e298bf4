//===- Fault.h - Deterministic fault injection ------------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, deterministic fault injection for the kernel/network stack. The
/// paper's monitor must be always-on in production, which means every layer
/// above the OS has to survive the failures production traffic actually
/// produces: interrupted syscalls, fd exhaustion, short writes, peer
/// resets, scheduling jitter. This header provides the machinery to
/// *manufacture* those failures on demand, reproducibly:
///
/// - FaultSpec: a parsed `--fault-spec kind:rate,...` mix. Rates are
///   per-decision-point probabilities in [0,1].
/// - FaultInjector: a SplitMix64-seeded decision engine. Every decision
///   point draws exactly one value, so the full fault schedule is a pure
///   function of (seed, decision index) — the same seed replays the
///   identical schedule, which scheduleDigest() makes checkable.
/// - FaultKernel: a decorator over any sim::Kernel (simulated or real
///   backend) injecting completion-deadline jitter and spurious wakeups
///   behind the existing virtual surface.
///
/// Syscall-level faults (EINTR/EAGAIN/ENOBUFS/short write/reset) are
/// injected by the network layer itself: RealSocket, the connection state
/// machine both real backends share, consults an installed FaultInjector
/// before every receive and inline send, so the hardened retry paths above
/// are exercised with real errno semantics on epoll and io_uring alike.
/// EMFILE is injected at EpollNetwork's accept4 loop only: io_uring's
/// multishot accept hands over fds the kernel already accepted.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_SIM_FAULT_H
#define ASYNCG_SIM_FAULT_H

#include "sim/Kernel.h"
#include "sim/Random.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>

namespace asyncg {
namespace sim {

/// The injectable fault classes. Each maps to one decision point kind in
/// the stack; see DESIGN.md §5i for where each fires and what the hardened
/// layer above is expected to do.
enum class FaultKind : uint8_t {
  Eintr = 0,   ///< Interrupted syscall (recv/send/wait return EINTR).
  Eagain,      ///< Spurious not-ready (recv returns EAGAIN).
  Emfile,      ///< accept4 fails with EMFILE (fd exhaustion).
  Enobufs,     ///< send fails with ENOBUFS (transient buffer exhaustion).
  ShortWrite,  ///< send is clamped to a strict prefix of the buffer.
  Reset,       ///< Connection fails with ECONNRESET (peer reset).
  Jitter,      ///< Completion deadlines are delayed by a random amount.
};

constexpr size_t NumFaultKinds = 7;

/// Stable lowercase name for flags and reports ("eintr", "shortwrite", ...).
const char *faultKindName(FaultKind K);

/// A parsed fault mix: per-kind injection probabilities.
struct FaultSpec {
  std::array<double, NumFaultKinds> Rate = {};
  /// Amplitude of deadline jitter, drawn uniformly in [1, MaxJitterUs].
  uint32_t MaxJitterUs = 500;

  double rate(FaultKind K) const { return Rate[static_cast<size_t>(K)]; }
  bool any() const {
    for (double R : Rate)
      if (R > 0)
        return true;
    return false;
  }

  /// The default mix used by bench/fault_soak and `--fault-spec default`:
  /// every kind enabled at rates a loaded server plausibly sees.
  static FaultSpec defaultMix();

  /// Parses "kind:rate,kind:rate,..." (or the single token "default").
  /// Unknown kinds and rates outside [0,1] fail with a message in \p Err.
  static bool parse(const std::string &Text, FaultSpec &Out,
                    std::string *Err = nullptr);

  /// Canonical textual form (parseable back); "" when no rates are set.
  std::string str() const;
};

/// Counters for the hardened error paths (and the faults injected into
/// them). Shared between a real network backend and its sockets so they
/// survive individual connection teardown; the harness folds them into
/// reports. Defined here (not in the Linux-only backend headers) so
/// cross-platform result structs can embed it.
struct NetRecoveryStats {
  uint64_t EintrRetries = 0;   ///< EINTR results retried in place.
  uint64_t AcceptPauses = 0;   ///< EMFILE/ENFILE accept pauses taken.
  uint64_t EnobufsRetries = 0; ///< ENOBUFS sends re-scheduled with backoff.
  uint64_t ShortWrites = 0;    ///< Injected short writes (clamped sends).
  uint64_t ResetsInjected = 0; ///< Injected peer resets.
  uint64_t DrainedConns = 0;   ///< Connections drained via failConnection.

  void merge(const NetRecoveryStats &O) {
    EintrRetries += O.EintrRetries;
    AcceptPauses += O.AcceptPauses;
    EnobufsRetries += O.EnobufsRetries;
    ShortWrites += O.ShortWrites;
    ResetsInjected += O.ResetsInjected;
    DrainedConns += O.DrainedConns;
  }
};

/// The seeded decision engine. One instance per event-loop thread (each
/// harness shard derives its own seed from the base seed), so decision
/// order — and therefore the schedule — is deterministic per loop.
class FaultInjector {
public:
  FaultInjector(const FaultSpec &Spec, uint64_t Seed)
      : Spec(Spec), Rng(Seed), Seed(Seed) {}

  /// One decision point: true when a fault of kind \p K should fire now.
  /// Always draws exactly once so the schedule depends only on the seed
  /// and the decision index, never on which kinds are enabled.
  bool shouldInject(FaultKind K) {
    bool Fire = Rng.nextDouble() < Spec.rate(K);
    ++Decisions;
    if (Fire)
      ++Injected[static_cast<size_t>(K)];
    // FNV-1a chain over (kind, outcome): two runs with the same seed walk
    // the same digest; any divergence in the schedule shows immediately.
    Digest ^= (static_cast<uint64_t>(K) << 1 | (Fire ? 1 : 0)) + 0x9e37;
    Digest *= 0x100000001b3ULL;
    return Fire;
  }

  /// Jitter amount for an injected Jitter fault, in [1, MaxJitterUs].
  uint64_t jitterUs() {
    return Rng.nextInt(1, Spec.MaxJitterUs ? Spec.MaxJitterUs : 1);
  }

  /// Length an injected short write clamps \p N bytes to: a strict,
  /// non-empty prefix (so N must be >= 2 for the clamp to bite).
  size_t shortenWrite(size_t N) {
    if (N < 2)
      return N;
    return static_cast<size_t>(Rng.nextInt(1, N - 1));
  }

  uint64_t seed() const { return Seed; }
  const FaultSpec &spec() const { return Spec; }
  uint64_t decisions() const { return Decisions; }
  uint64_t injected(FaultKind K) const {
    return Injected[static_cast<size_t>(K)];
  }
  uint64_t totalInjected() const {
    uint64_t T = 0;
    for (uint64_t I : Injected)
      T += I;
    return T;
  }

  /// Digest of the full decision stream so far. Two runs with the same
  /// seed and workload must report identical digests — the reproducibility
  /// gate in bench/fault_soak.
  uint64_t scheduleDigest() const { return Digest; }

private:
  FaultSpec Spec;
  Random Rng;
  uint64_t Seed;
  uint64_t Decisions = 0;
  std::array<uint64_t, NumFaultKinds> Injected = {};
  uint64_t Digest = 0xcbf29ce484222325ULL;
};

/// Decorator injecting faults behind the Kernel virtual surface. Wraps any
/// backend (Sim, Epoll, Uring): submit() may delay completion deadlines
/// (Jitter), waitUntil() may wake spuriously (modeling an
/// EINTR-interrupted wait). Everything else forwards. The network layers
/// keep their concrete reference to the wrapped kernel, so delivery
/// submits bypass the decorator — jitter applies to loop-visible deadlines
/// only, which is what the hardening above must tolerate.
class FaultKernel : public Kernel {
public:
  FaultKernel(std::unique_ptr<Kernel> Inner, FaultInjector &Inj)
      : Kernel(Inner->clock()), Owned(std::move(Inner)), Inj(Inj) {}

  Kernel &inner() { return *Owned; }
  const Kernel &inner() const { return *Owned; }

  OpId submit(SimTime Delay, std::function<void()> Action) override {
    if (Inj.shouldInject(FaultKind::Jitter))
      Delay += Inj.jitterUs();
    return Owned->submit(Delay, std::move(Action));
  }
  bool cancel(OpId Id) override { return Owned->cancel(Id); }
  bool hasPending() const override { return Owned->hasPending(); }
  size_t pendingCount() const override { return Owned->pendingCount(); }
  SimTime nextDeadline() const override { return Owned->nextDeadline(); }
  std::vector<std::function<void()>> takeDue() override {
    return Owned->takeDue();
  }
  bool waitUntil(SimTime Next) override {
    // Spurious wake: wait a tiny slice instead of the full interval. The
    // loop observes an early return with nothing due — exactly what an
    // EINTR-interrupted epoll_wait produces. Never injected on an
    // unbounded wait (the loop would busy-spin on I/O that isn't there).
    if (Next != NoDeadline && Next > now() &&
        Inj.shouldInject(FaultKind::Eintr)) {
      SimTime Slice = now() + 1;
      return Owned->waitUntil(Slice < Next ? Slice : Next);
    }
    return Owned->waitUntil(Next);
  }
  bool isRealTime() const override { return Owned->isRealTime(); }
  KernelStats kernelStats() const override { return Owned->kernelStats(); }

private:
  std::unique_ptr<Kernel> Owned;
  FaultInjector &Inj;
};

} // namespace sim
} // namespace asyncg

#endif // ASYNCG_SIM_FAULT_H
