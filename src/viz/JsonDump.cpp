//===- JsonDump.cpp - JSON serialization of Async Graphs ----------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "viz/JsonDump.h"

#include "support/JsonWriter.h"

#include <cstdio>

using namespace asyncg;
using namespace asyncg::viz;
using namespace asyncg::ag;

std::string asyncg::viz::toJson(const AsyncGraph &G) {
  JsonWriter W;
  W.beginObject();

  W.key("ticks");
  W.beginArray();
  for (const AgTick &T : G.ticks()) {
    if (T.Retired)
      continue;
    W.beginObject();
    W.field("index", static_cast<uint64_t>(T.Index));
    W.field("phase", jsrt::phaseKindName(T.Phase));
    W.key("nodes");
    W.beginArray();
    for (NodeId N : G.tickNodes(T))
      W.value(static_cast<uint64_t>(N));
    W.endArray();
    W.endObject();
  }
  W.endArray();

  W.key("nodes");
  W.beginArray();
  for (const AgNode &N : G.nodes()) {
    if (N.Id == InvalidNode) // freelisted (retired) node slot
      continue;
    W.beginObject();
    W.field("id", static_cast<uint64_t>(N.Id));
    W.field("kind", nodeKindName(N.Kind));
    W.field("tick", static_cast<uint64_t>(N.Tick));
    W.field("label", nodeLabel(N));
    W.field("loc", N.Loc.str());
    W.field("api", jsrt::apiKindName(N.Api));
    if (N.Obj != 0)
      W.field("obj", static_cast<uint64_t>(N.Obj));
    if (N.Sched != 0)
      W.field("sched", static_cast<uint64_t>(N.Sched));
    if (!N.Event.empty())
      W.field("event", N.Event);
    if (N.Internal)
      W.field("internal", true);
    if (N.Kind == NodeKind::OB)
      W.field("promise", N.IsPromise);
    if (N.Kind == NodeKind::CT)
      W.field("hadEffect", N.HadEffect);
    if (N.Kind == NodeKind::CR) {
      W.field("execCount", static_cast<uint64_t>(N.ExecCount));
      if (N.Removed)
        W.field("removed", true);
    }
    W.endObject();
  }
  W.endArray();

  W.key("edges");
  W.beginArray();
  for (const AgEdge &E : G.edges()) {
    if (E.From == InvalidNode) // freelisted (retired) edge slot
      continue;
    W.beginObject();
    W.field("from", static_cast<uint64_t>(E.From));
    W.field("to", static_cast<uint64_t>(E.To));
    W.field("kind", edgeKindName(E.Kind));
    if (!E.Label.empty())
      W.field("label", E.Label);
    W.endObject();
  }
  W.endArray();

  W.key("warnings");
  W.beginArray();
  for (const Warning &Wn : G.warnings()) {
    W.beginObject();
    W.field("category", bugCategoryName(Wn.Category));
    W.field("message", Wn.Message);
    W.field("loc", Wn.Loc.str());
    if (Wn.Node != InvalidNode)
      W.field("node", static_cast<uint64_t>(Wn.Node));
    W.field("tick", static_cast<uint64_t>(Wn.Tick));
    W.endObject();
  }
  W.endArray();

  W.key("stats");
  W.beginObject();
  W.field("ticks", static_cast<uint64_t>(G.liveTickCount()));
  W.field("nodes", static_cast<uint64_t>(G.nodeCount()));
  W.field("edges", static_cast<uint64_t>(G.liveEdgeCount()));
  W.field("warnings", static_cast<uint64_t>(G.warnings().size()));
  W.endObject();

  const RetiredSummary &R = G.retired();
  if (R.Ticks != 0) {
    W.key("retired");
    W.beginObject();
    W.field("ticks", R.Ticks);
    W.field("nodes", R.Nodes);
    W.field("edges", R.Edges);
    W.key("byKind");
    W.beginObject();
    for (int K = 0; K != 4; ++K)
      if (R.ByKind[K] != 0)
        W.field(nodeKindName(static_cast<NodeKind>(K)), R.ByKind[K]);
    W.endObject();
    W.endObject();
  }

  W.endObject();
  return W.take();
}

bool asyncg::viz::writeFile(const std::string &Path,
                            const std::string &Contents) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Contents.data(), 1, Contents.size(), F);
  std::fclose(F);
  return Written == Contents.size();
}
