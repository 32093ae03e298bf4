//===- Builder.h - AsyncG: builds the Async Graph at runtime ----*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AsyncG analysis (§V): attaches to the instrumentation hooks and
/// builds the Async Graph of the running application.
///
///  - Algorithm 1: a shadow stack identifies event-loop ticks — a new tick
///    starts when a function is entered with an empty shadow stack; ticks
///    are appended to the graph only when non-empty.
///  - Algorithm 2: per-API templates process asynchronous API calls into
///    CR nodes and pending-registration lists.
///  - Algorithm 3: a context validator maps every callback execution to
///    the registration that scheduled it, creating CE nodes, dashed
///    binding edges, and causal edges from the CR or the CT (trigger).
///
/// Bug detectors subscribe as GraphObservers and analyze the graph online.
/// The builder can be attached/detached from the runtime's hook registry
/// at any time, and its configuration supports the paper's evaluation
/// settings (full tracking vs promise tracking excluded, Fig. 6(a)).
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_AG_BUILDER_H
#define ASYNCG_AG_BUILDER_H

#include "ag/Graph.h"
#include "ag/Observer.h"
#include "ag/Validator.h"
#include "instr/Hooks.h"
#include "support/FlatMap.h"

#include <string>
#include <vector>

namespace asyncg {
namespace ag {

/// Builder configuration (the Fig. 6(a) instrumentation settings).
struct BuilderConfig {
  /// Track promise-related APIs (the "withpromise" setting); false is the
  /// paper's "nopromise" configuration.
  bool TrackPromises = true;
  /// Track emitter APIs (always on in the paper; exposed for ablation).
  bool TrackEmitters = true;
  /// Build graph nodes/edges. When false, only the shadow stack and tick
  /// accounting run (ablation baseline for the analysis cost benches).
  bool BuildGraph = true;
  /// Storage pre-sizing hints passed to AsyncGraph::reserveHint(); raise
  /// them for long-running workloads to avoid growth reallocations.
  size_t ExpectedNodes = 256;
  size_t ExpectedEdges = 512;
  /// Tick-epoch retirement: once a tick-rooted region has no pending
  /// registrations, live listeners/timers, or unreleased tracked objects,
  /// and has fallen RetainWindow ticks behind the newest committed tick,
  /// its nodes are folded into the graph's RetiredSummary and reclaimed.
  /// Off by default: the full graph is the paper's behavior, and short
  /// runs want it for post-mortem queries.
  bool Retire = false;
  /// How many committed ticks a quiesced region is retained before being
  /// retired (the live window available to detectors and viz).
  uint32_t RetainWindow = 8;
};

/// The AsyncG dynamic analysis.
class AsyncGBuilder : public instr::AnalysisBase {
public:
  explicit AsyncGBuilder(BuilderConfig Config = BuilderConfig());
  ~AsyncGBuilder() override;

  const char *analysisName() const override { return "AsyncG"; }

  const BuilderConfig &config() const { return Config; }
  AsyncGraph &graph() { return Graph; }
  const AsyncGraph &graph() const { return Graph; }

  /// Attaches an online analysis (not owned).
  void addObserver(GraphObserver *O) { Observers.push_back(O); }

  /// \name Builder context exposed to observers
  /// @{

  /// The innermost callback-execution node currently running, or
  /// InvalidNode.
  NodeId currentCe() const;

  /// The CE node of every open frame, outermost first (the execution
  /// context stack); InvalidNode for frames that are plain calls.
  const std::vector<NodeId> &ceStack() const { return CeStack; }

  /// Index of the currently open tick (0 before the first).
  uint32_t currentTickIndex() const { return CurTick.Index; }
  jsrt::PhaseKind currentTickPhase() const { return CurTick.Phase; }

  /// Total ticks opened (including empty ones that were not committed).
  uint64_t ticksOpened() const { return TickCounter; }
  /// @}

  /// Bytes retained by the builder: the graph plus the validator's pending
  /// lists and the retirement accounting. The global symbol table is
  /// reported separately by symtab().memoryUsage().
  size_t memoryFootprint() const;

  /// \name AnalysisBase hooks
  /// @{
  void onFunctionEnter(const instr::FunctionEnterEvent &E) override;
  void onFunctionExit(const instr::FunctionExitEvent &E) override;
  void onApiCall(const instr::ApiCallEvent &E) override;
  void onObjectCreate(const instr::ObjectCreateEvent &E) override;
  void onReactionResult(const instr::ReactionResultEvent &E) override;
  void onPromiseLink(const instr::PromiseLinkEvent &E) override;
  void onObjectRelease(const instr::ObjectReleaseEvent &E) override;
  void onLoopEnd(const instr::LoopEndEvent &E) override;
  /// Safe point between pipeline/replay batches: retires eligible regions
  /// when Config.Retire is on and no tick is open.
  void onBatchBoundary() override;
  /// @}

private:
  /// True when \p Api should be ignored under the current configuration.
  bool filtered(jsrt::ApiKind Api) const;

  /// Opens a new tick of the given phase (committing the previous one if
  /// it has nodes) — Algorithm 1 lines 2-4.
  void openTick(jsrt::PhaseKind Phase);

  /// Commits the current tick to the graph if non-empty — Algorithm 1
  /// lines 9-10.
  void commitTick();

  /// Makes sure some tick is open before adding nodes outside callbacks.
  void ensureTick(jsrt::PhaseKind Phase);

  /// Adds a node, wiring the happens-in edge from the innermost active CE
  /// and notifying observers.
  NodeId addNode(AgNode N);

  void addEdge(NodeId From, NodeId To, EdgeKind Kind, Symbol Label = Symbol());

  void processRegistration(const instr::ApiCallEvent &E);
  void processTrigger(const instr::ApiCallEvent &E);
  void processCombinator(const instr::ApiCallEvent &E);
  void processRemoval(const instr::ApiCallEvent &E);

  /// \name Pending registrations
  /// The paper's L_pending^cb lists, pooled: every pending registration is
  /// one PendingCell, linked into its callback's chain (Pending, probed on
  /// every function enter) and, when bound to an object, into that
  /// object's chain (PendingByObj, walked by a release or
  /// removeAllListeners). Both chains are doubly linked and in
  /// registration order; freed cells are recycled through PendingFree.
  /// @{
  struct PendingCell {
    PendingReg Reg;
    jsrt::FunctionId Fn = 0;
    uint32_t FnPrev = detail::AdjNil, FnNext = detail::AdjNil;
    uint32_t ObjPrev = detail::AdjNil, ObjNext = detail::AdjNil;
  };
  struct PendingChain {
    uint32_t Head = detail::AdjNil;
    uint32_t Tail = detail::AdjNil;
  };
  void addPending(jsrt::FunctionId Fn, const PendingReg &Reg);
  /// Unlinks cell \p C from both chains (dropping emptied keys) and frees
  /// it.
  void erasePending(uint32_t C);
  /// @}

  /// \name Tick-epoch retirement accounting
  /// Each opened tick gets a slot in Regions (recycled once the tick
  /// retires, or at commit when it stays empty). A region counts the
  /// obligations pinning it: one per pending registration whose CR lives
  /// in the tick (PendingReg::Region), one per unreleased tracked object
  /// whose OB lives in it (ObRegion). A committed region whose count is
  /// zero is quiesced and waits in Quiesced, ordered by commit ordinal;
  /// once it falls RetainWindow committed ticks behind the newest one it
  /// is retired (observers notified, then storage reclaimed).
  /// @{
  struct Region {
    uint32_t Tick = 0;
    uint32_t Pins = 0;
    /// Commit ordinal (1-based); 0 while the tick is open.
    uint64_t Ordinal = 0;
  };
  /// Pins the open tick's region; returns its slot.
  uint32_t pinRegion();
  void unpinRegion(uint32_t Slot);
  /// Queues a quiesced committed region in commit-ordinal order.
  void enqueueQuiesced(uint32_t Slot);
  /// Retires the quiesced regions outside the retain window (a prefix of
  /// Quiesced). Called at commitTick and from onBatchBoundary (never while
  /// a tick is open).
  void runRetireScan();
  /// @}

  BuilderConfig Config;
  AsyncGraph Graph;
  std::vector<GraphObserver *> Observers;

  /// False until the first observed top-level dispatch: when attached in
  /// the middle of a run, the builder starts from the following tick
  /// (§V-B) and ignores enter/exit events of frames it never saw open.
  bool Synced = false;

  /// Algorithm 1's sstack (function ids).
  std::vector<jsrt::FunctionId> ShadowStack;
  /// Per-frame CE node (InvalidNode for plain calls), parallel to
  /// ShadowStack.
  std::vector<NodeId> CeStack;

  /// The currently open tick (committed when non-empty).
  AgTick CurTick;
  bool TickOpen = false;
  uint64_t TickCounter = 0;

  FlatMap<jsrt::FunctionId, PendingChain> Pending;
  FlatMap<jsrt::ObjectId, PendingChain> PendingByObj;
  std::vector<PendingCell> PendingPool;
  uint32_t PendingFree = detail::AdjNil;

  std::vector<Region> Regions;
  std::vector<uint32_t> FreeRegions;
  /// The open tick's region slot.
  uint32_t CurRegion = 0;
  /// Region slot of each OB node's tick, indexed by node id.
  std::vector<uint32_t> ObRegion;
  /// A quiesced committed region and when it quiesced (1-based count).
  struct QuiescedRegion {
    uint64_t Seq;
    uint32_t Slot;
  };
  /// Quiesced committed regions, ascending commit ordinal.
  std::vector<QuiescedRegion> Quiesced;
  uint64_t QuiesceCount = 0;
  uint64_t CommittedCount = 0;
};

} // namespace ag
} // namespace asyncg

#endif // ASYNCG_AG_BUILDER_H
