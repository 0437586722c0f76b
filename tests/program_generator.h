// A seeded generator of small PHP upload programs: assignments, branches,
// switches, loops, one-line helper functions and a final (sometimes
// whitelist-guarded) move_uploaded_file. The same seed always yields the
// same program, so a failing seed reproduces.
#pragma once

#include <string>

namespace uchecker::testing_fuzz {

class ProgramGenerator {
 public:
  explicit ProgramGenerator(unsigned seed) : state_(seed * 2654435761u + 97u) {}

  std::string generate() {
    std::string out = "<?php\n";
    const int statements = 3 + static_cast<int>(next(8));
    for (int i = 0; i < statements; ++i) out += statement(2);
    // Always end with a (possibly guarded) upload so sinks are exercised.
    if (next(2) == 0) {
      out += "$ext = strtolower(pathinfo($_FILES['f']['name'], "
             "PATHINFO_EXTENSION));\n";
      out += "if (in_array($ext, array('jpg', 'png'))) {\n";
      out += "    move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . "
             "$_FILES['f']['name']);\n";
      out += "}\n";
    } else {
      out += "move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . "
             "$_FILES['f']['name']);\n";
    }
    return out;
  }

 private:
  unsigned next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_ >> 8;
  }
  unsigned next(unsigned bound) { return bound == 0 ? 0 : next() % bound; }

  std::string var() { return "$v" + std::to_string(next(6)); }

  std::string expr(int depth) {
    if (depth <= 0) {
      switch (next(5)) {
        case 0: return std::to_string(next(100));
        case 1: return "'s" + std::to_string(next(10)) + "'";
        case 2: return var();
        case 3: return "$_POST['p" + std::to_string(next(3)) + "']";
        default: return "$_FILES['f']['name']";
      }
    }
    switch (next(7)) {
      case 0: return expr(depth - 1) + " . " + expr(depth - 1);
      case 1: return expr(depth - 1) + " + " + expr(depth - 1);
      case 2: return expr(depth - 1) + " == " + expr(depth - 1);
      case 3: return "strtolower(" + expr(depth - 1) + ")";
      case 4: return "strlen(" + expr(depth - 1) + ")";
      case 5: return "(" + expr(depth - 1) + " ? " + expr(depth - 1) + " : " +
                     expr(depth - 1) + ")";
      default: return "isset(" + var() + ")";
    }
  }

  std::string statement(int depth) {
    if (depth <= 0) return "    " + var() + " = " + expr(1) + ";\n";
    switch (next(8)) {
      case 0:
      case 1:
        return var() + " = " + expr(2) + ";\n";
      case 2: {
        std::string s = "if (" + expr(1) + ") {\n";
        s += statement(depth - 1);
        if (next(2) == 0) {
          s += "} else {\n";
          s += statement(depth - 1);
        }
        s += "}\n";
        return s;
      }
      case 3: {
        std::string s = "switch (" + var() + ") {\n";
        const int cases = 2 + static_cast<int>(next(3));
        for (int i = 0; i < cases; ++i) {
          s += "case " + std::to_string(i) + ":\n";
          s += statement(0);
          s += "break;\n";
        }
        s += "default:\n";
        s += statement(0);
        s += "}\n";
        return s;
      }
      case 4: {
        std::string s = "while (" + expr(1) + ") {\n";
        s += statement(depth - 1);
        s += "}\n";
        return s;
      }
      case 5: {
        std::string s = "foreach (array(1, 2, 3) as $it) {\n";
        s += statement(0);
        s += "}\n";
        return s;
      }
      case 6: {
        const std::string fn = "gen_fn_" + std::to_string(next(1000));
        std::string s = "function " + fn + "($p) {\n";
        s += "    return $p . '-x';\n";
        s += "}\n";
        s += var() + " = " + fn + "(" + expr(1) + ");\n";
        return s;
      }
      default:
        return "$arr" + std::to_string(next(3)) + "['k" +
               std::to_string(next(3)) + "'] = " + expr(1) + ";\n";
    }
  }

  unsigned state_;
};

}  // namespace uchecker::testing_fuzz
