//===- TextReport.cpp - plain-text Async Graph reports -------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "viz/TextReport.h"

#include "support/Format.h"

#include <set>

using namespace asyncg;
using namespace asyncg::viz;
using namespace asyncg::ag;

namespace {

const char *glyphOf(NodeKind K) {
  switch (K) {
  case NodeKind::CR:
    return "[]";
  case NodeKind::CE:
    return "()";
  case NodeKind::CT:
    return "**";
  case NodeKind::OB:
    return "/\\";
  }
  return "??";
}

} // namespace

std::string asyncg::viz::toText(const AsyncGraph &G,
                                const TextOptions &Opts) {
  std::set<NodeId> Warned;
  for (const Warning &W : G.warnings())
    if (W.Node != InvalidNode)
      Warned.insert(W.Node);

  std::string Out;
  const RetiredSummary &Retired = G.retired();
  if (Retired.Ticks != 0)
    Out += strFormat("[%llu retired tick(s): %llu nodes, %llu edges "
                     "folded into summary]\n",
                     static_cast<unsigned long long>(Retired.Ticks),
                     static_cast<unsigned long long>(Retired.Nodes),
                     static_cast<unsigned long long>(Retired.Edges));
  size_t Rendered = 0;
  size_t LiveTicks = G.liveTickCount();
  for (const AgTick &T : G.ticks()) {
    if (T.Retired)
      continue;
    if (Opts.MaxTicks != 0 && Rendered == Opts.MaxTicks) {
      Out += strFormat("... (%zu more ticks)\n", LiveTicks - Rendered);
      break;
    }
    ++Rendered;
    Out += T.name() + "\n";
    for (NodeId N : G.tickNodes(T)) {
      const AgNode &Node = G.node(N);
      if (!Opts.IncludeInternal && Node.Internal)
        continue;
      std::string Line = strFormat("  %s ", glyphOf(Node.Kind));
      appendNodeLabel(Node, Line);
      // Key relations rendered inline.
      for (uint32_t E : G.outEdges(N)) {
        const AgEdge &Edge = G.edge(E);
        if (Edge.Kind == EdgeKind::Binding) {
          Line += "  ~~> ";
          appendNodeLabel(G.node(Edge.To), Line);
        } else if (Edge.Kind == EdgeKind::Relation && !Edge.Label.empty()) {
          Line += strFormat("  --%s--> ", Edge.Label.c_str());
          appendNodeLabel(G.node(Edge.To), Line);
        }
      }
      if (Warned.count(N))
        Line += "   (!)";
      Out += Line + "\n";
    }
  }
  return Out;
}

std::string asyncg::viz::warningsReport(const AsyncGraph &G) {
  if (G.warnings().empty())
    return "no warnings\n";
  std::string Out;
  for (const Warning &W : G.warnings())
    Out += strFormat("warning[%s] @ %s (t%u): %s\n",
                     bugCategoryName(W.Category), W.Loc.str().c_str(),
                     W.Tick, W.Message.c_str());
  return Out;
}
