// The sink slice of one analysis root: the variables whose values a sink
// can observe. The interpreter merges environments at if/switch joins
// when they agree on these variables (core/interp/interp.cc), which is
// what keeps branch ladders the sink never reads from multiplying paths.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/callgraph/callgraph.h"
#include "core/callgraph/locality.h"
#include "core/sinks.h"
#include "phpast/ast.h"

namespace uchecker::core {

// Flow-insensitive, over-approximate set R of sink-relevant variable
// names for `root`, over the root body, the user functions it can reach
// and the files it includes, both resolved by Program::callee() and
// Program::include_target() as the interpreter resolves them (variables
// are matched by name across scopes). R is the backward closure of:
//  - the variables in the arguments of every registered sink call;
//  - a binding's right-hand side (phpast/dataflow's binding sites, plus
//    property writes) when its variable is in R, and a call's argument
//    when the callee's parameter is;
//  - the variables of every `return` value of a called function;
//  - the condition variables of every if/elseif/switch/loop whose arms
//    contain a sink, a terminator (exit, throw, wp_die, ...), a return,
//    a user-function call, an include, or a write to a variable in R. A
//    foreach counts its iterable as the condition, and any fork in its
//    body pins it too: the unrolled entry count decides how often the
//    body forks.
// Returns std::nullopt -- "every variable is relevant", no merging --
// when the root reaches no sink, or uses what defeats a name-based slice:
// a variable variable (`$$x`), $GLOBALS, extract/compact/eval, a
// by-reference binding, or a variable function.
[[nodiscard]] std::optional<std::vector<std::string>> sink_relevant_vars(
    const Program& program, const AnalysisRoot& root,
    const SinkRegistry& sinks);

}  // namespace uchecker::core
