//===- Function.h - First-class callbacks with identity ---------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JavaScript-level functions: a C++ callable plus a stable identity
/// (FunctionId), a name, and the source location where the function is
/// "defined". Identity matters for the paper's analyses — e.g. invalid
/// listener removal is precisely "a different function object that looks
/// the same", and recursive-microtask detection compares FunctionIds.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_JSRT_FUNCTION_H
#define ASYNCG_JSRT_FUNCTION_H

#include "jsrt/Completion.h"
#include "jsrt/Ids.h"
#include "jsrt/Value.h"
#include "support/SourceLocation.h"

#include <functional>
#include <string>
#include <utility>

namespace asyncg {
namespace jsrt {

class Runtime;

/// Arguments to a function invocation.
class CallArgs {
public:
  CallArgs() = default;
  explicit CallArgs(std::vector<Value> Args) : Args(std::move(Args)) {}
  CallArgs(Value ThisVal, std::vector<Value> Args)
      : ThisVal(std::move(ThisVal)), Args(std::move(Args)) {}

  size_t size() const { return Args.size(); }

  /// Returns argument \p I, or undefined when absent (JS semantics).
  const Value &arg(size_t I) const {
    static const Value Undef;
    return I < Args.size() ? Args[I] : Undef;
  }

  const Value &thisValue() const { return ThisVal; }
  const std::vector<Value> &all() const { return Args; }

private:
  Value ThisVal;
  std::vector<Value> Args;
};

/// The C++ signature of a JS function body.
using FunctionBody = std::function<Completion(Runtime &, const CallArgs &)>;

/// Shared payload of a function value.
struct FunctionData {
  FunctionId Id = 0;
  std::string Name;
  /// Name as an interned Symbol: filled on first Function::nameSymbol()
  /// call, or directly by a trace decoder that already holds the id.
  /// Empty until then (and for unnamed functions).
  Symbol NameSym;
  SourceLocation Loc;
  bool IsBuiltin = false;
  FunctionBody Body;
};

/// Lightweight handle to a function. Comparable by identity.
class Function {
public:
  Function() = default;
  explicit Function(FunctionRef Data) : Data(std::move(Data)) {}

  bool isValid() const { return Data != nullptr; }
  explicit operator bool() const { return isValid(); }

  FunctionId id() const { return Data ? Data->Id : 0; }
  const std::string &name() const {
    static const std::string Empty;
    return Data ? Data->Name : Empty;
  }
  /// name() interned once per function and cached in the shared payload,
  /// so graph nodes can carry it as a 4-byte Symbol.
  Symbol nameSymbol() const {
    if (!Data)
      return Symbol();
    if (Data->NameSym.empty() && !Data->Name.empty())
      Data->NameSym = Symbol(Data->Name);
    return Data->NameSym;
  }
  const SourceLocation &loc() const {
    static const SourceLocation Invalid;
    return Data ? Data->Loc : Invalid;
  }
  bool isBuiltin() const { return Data && Data->IsBuiltin; }

  const FunctionRef &ref() const { return Data; }
  Value toValue() const { return Value::function(Data); }

  /// Identity comparison: the semantics of removeListener.
  bool sameAs(const Function &RHS) const { return Data == RHS.Data; }

private:
  FunctionRef Data;
};

} // namespace jsrt
} // namespace asyncg

#endif // ASYNCG_JSRT_FUNCTION_H
