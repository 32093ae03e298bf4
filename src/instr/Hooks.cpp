//===- Hooks.cpp - Instrumentation hook interface ---------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "instr/Hooks.h"

using namespace asyncg;
using namespace asyncg::instr;

// Out-of-line virtual method anchor.
AnalysisBase::~AnalysisBase() = default;

constinit thread_local uint64_t instr::detail::ConstructedEvents = 0;

uint64_t instr::constructedEventCount() {
  return detail::ConstructedEvents;
}

void instr::resetConstructedEventCount() {
  detail::ConstructedEvents = 0;
}
