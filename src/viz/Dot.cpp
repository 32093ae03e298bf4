//===- Dot.cpp - DOT rendering of Async Graphs --------------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "viz/Dot.h"

#include "support/Format.h"

#include <set>

using namespace asyncg;
using namespace asyncg::viz;
using namespace asyncg::ag;

namespace {

const char *shapeOf(NodeKind K) {
  switch (K) {
  case NodeKind::CR:
    return "box";
  case NodeKind::CE:
    return "ellipse";
  case NodeKind::CT:
    return "diamond";
  case NodeKind::OB:
    return "triangle";
  }
  return "box";
}

} // namespace

std::string asyncg::viz::toDot(const AsyncGraph &G, const DotOptions &Opts) {
  std::string Out;
  Out += "digraph AsyncGraph {\n";
  Out += strFormat("  label=\"%s\";\n", escapeString(Opts.Title).c_str());
  Out += "  rankdir=LR;\n  fontname=\"Helvetica\";\n";
  Out += "  node [fontname=\"Helvetica\", fontsize=10];\n";
  Out += "  edge [fontname=\"Helvetica\", fontsize=9];\n";

  // Nodes with warnings get highlighted.
  std::set<NodeId> Warned;
  for (const Warning &W : G.warnings())
    if (W.Node != InvalidNode)
      Warned.insert(W.Node);

  std::set<NodeId> Skipped;

  if (G.retired().Ticks != 0)
    Out += strFormat("  // %llu retired tick(s) folded into summary\n",
                     static_cast<unsigned long long>(G.retired().Ticks));

  // One cluster per tick.
  for (const AgTick &T : G.ticks()) {
    if (T.Retired)
      continue;
    Out += strFormat("  subgraph cluster_t%u {\n", T.Index);
    Out += strFormat("    label=\"%s\";\n    style=dashed;\n",
                     escapeString(T.name()).c_str());
    for (NodeId N : G.tickNodes(T)) {
      const AgNode &Node = G.node(N);
      if (!Opts.IncludeInternal && Node.Internal) {
        Skipped.insert(N);
        continue;
      }
      bool HasWarning = Warned.count(N) != 0;
      std::string Label = HasWarning ? "(!) " : "";
      appendNodeLabel(Node, Label);
      Out += strFormat(
          "    n%u [label=\"%s\", shape=%s%s];\n", N,
          escapeString(Label).c_str(), shapeOf(Node.Kind),
          HasWarning ? ", color=red, penwidth=2"
                     : (Node.Internal ? ", color=gray50, fontcolor=gray30"
                                      : ""));
    }
    Out += "  }\n";
  }

  for (const AgEdge &E : G.edges()) {
    if (E.From == InvalidNode) // freelisted (retired) edge slot
      continue;
    if (Skipped.count(E.From) || Skipped.count(E.To))
      continue;
    const char *Style = "solid";
    const char *Extra = "";
    switch (E.Kind) {
    case EdgeKind::Causal:
      Style = "solid";
      break;
    case EdgeKind::HappensIn:
      if (!Opts.IncludeHappensIn)
        continue;
      Style = "dotted";
      Extra = ", arrowhead=open, color=gray50";
      break;
    case EdgeKind::Binding:
      Style = "dashed";
      Extra = ", dir=back, color=gray30";
      break;
    case EdgeKind::Relation:
      Style = "dashed";
      Extra = ", color=blue3, fontcolor=blue3";
      break;
    }
    if (E.Label.empty())
      Out += strFormat("  n%u -> n%u [style=%s%s];\n", E.From, E.To, Style,
                       Extra);
    else
      Out += strFormat("  n%u -> n%u [style=%s%s, label=\"%s\"];\n", E.From,
                       E.To, Style, Extra, escapeString(E.Label.view()).c_str());
  }

  Out += "}\n";
  return Out;
}
