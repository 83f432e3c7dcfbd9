#include "exec/evaluator.h"

#include <cassert>
#include <cmath>

#include "common/strings.h"

namespace bornsql::exec {
namespace {

struct FuncSpec {
  const char* name;
  ScalarFunc func;
  int min_arity;
  int max_arity;  // -1 = unbounded
};

constexpr FuncSpec kFuncs[] = {
    {"pow", ScalarFunc::kPow, 2, 2},
    {"power", ScalarFunc::kPow, 2, 2},
    {"ln", ScalarFunc::kLn, 1, 1},
    {"log", ScalarFunc::kLog10, 1, 1},
    {"log10", ScalarFunc::kLog10, 1, 1},
    {"exp", ScalarFunc::kExp, 1, 1},
    {"sqrt", ScalarFunc::kSqrt, 1, 1},
    {"abs", ScalarFunc::kAbs, 1, 1},
    {"round", ScalarFunc::kRound, 1, 2},
    {"floor", ScalarFunc::kFloor, 1, 1},
    {"ceil", ScalarFunc::kCeil, 1, 1},
    {"ceiling", ScalarFunc::kCeil, 1, 1},
    {"lower", ScalarFunc::kLower, 1, 1},
    {"upper", ScalarFunc::kUpper, 1, 1},
    {"length", ScalarFunc::kLength, 1, 1},
    {"substr", ScalarFunc::kSubstr, 2, 3},
    {"coalesce", ScalarFunc::kCoalesce, 1, -1},
    {"nullif", ScalarFunc::kNullIf, 2, 2},
    {"cast", ScalarFunc::kCast, 2, 2},
    {"mod", ScalarFunc::kMod, 2, 2},
    {"sign", ScalarFunc::kSign, 1, 1},
    {"trim", ScalarFunc::kTrim, 1, 1},
    {"replace", ScalarFunc::kReplace, 3, 3},
    {"instr", ScalarFunc::kInstr, 2, 2},
};

// The kFuncs entry named `name` (case-insensitive), or null.
const FuncSpec* FindFuncSpec(std::string_view name) {
  for (const FuncSpec& spec : kFuncs) {
    if (EqualsIgnoreCase(spec.name, name)) return &spec;
  }
  return nullptr;
}

bool ArityFits(const FuncSpec& spec, size_t arity) {
  return arity >= static_cast<size_t>(spec.min_arity) &&
         (spec.max_arity < 0 || arity <= static_cast<size_t>(spec.max_arity));
}

Status TypeError(const char* op, const Value& v) {
  return Status::ExecutionError(StrFormat(
      "cannot apply %s to %s value '%s'", op, ValueTypeName(v.type()),
      v.ToString().c_str()));
}

// Wraps a double result: non-finite values become NULL (SQLite semantics for
// e.g. ln(0), 1.0/0.0).
Value DoubleOrNull(double d) {
  if (!std::isfinite(d)) return Value::Null();
  return Value::Double(d);
}

Result<Value> EvalUnary(BoundUnaryOp op, const Value& v) {
  if (v.is_null()) return Value::Null();
  switch (op) {
    case BoundUnaryOp::kNegate:
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDouble());
      return TypeError("unary minus", v);
    case BoundUnaryOp::kPlus:
      if (v.is_numeric()) return v;
      return TypeError("unary plus", v);
    case BoundUnaryOp::kNot:
      return Value::Bool(!v.Truthy());
  }
  return Status::Internal("bad unary op");
}

Result<Value> EvalArith(BoundBinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return TypeError("arithmetic", a.is_numeric() ? b : a);
  }
  const bool both_int = a.is_int() && b.is_int();
  switch (op) {
    case BoundBinaryOp::kAdd:
      if (both_int) return Value::Int(a.AsInt() + b.AsInt());
      return Value::Double(a.AsDouble() + b.AsDouble());
    case BoundBinaryOp::kSub:
      if (both_int) return Value::Int(a.AsInt() - b.AsInt());
      return Value::Double(a.AsDouble() - b.AsDouble());
    case BoundBinaryOp::kMul:
      if (both_int) return Value::Int(a.AsInt() * b.AsInt());
      return Value::Double(a.AsDouble() * b.AsDouble());
    case BoundBinaryOp::kDiv:
      if (both_int) {
        // Integer division truncates toward zero (all three reference DBMSs
        // agree); x / 0 yields NULL (SQLite/MySQL portable behaviour).
        if (b.AsInt() == 0) return Value::Null();
        return Value::Int(a.AsInt() / b.AsInt());
      }
      if (b.AsDouble() == 0.0) return Value::Null();
      return DoubleOrNull(a.AsDouble() / b.AsDouble());
    case BoundBinaryOp::kMod:
      if (both_int) {
        if (b.AsInt() == 0) return Value::Null();
        return Value::Int(a.AsInt() % b.AsInt());
      }
      if (b.AsDouble() == 0.0) return Value::Null();
      return DoubleOrNull(std::fmod(a.AsDouble(), b.AsDouble()));
    default:
      return Status::Internal("bad arith op");
  }
}

Result<Value> EvalComparison(BoundBinaryOp op, const Value& a,
                             const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  int c = Value::Compare(a, b);
  switch (op) {
    case BoundBinaryOp::kEq:
      return Value::Bool(c == 0);
    case BoundBinaryOp::kNotEq:
      return Value::Bool(c != 0);
    case BoundBinaryOp::kLt:
      return Value::Bool(c < 0);
    case BoundBinaryOp::kLtEq:
      return Value::Bool(c <= 0);
    case BoundBinaryOp::kGt:
      return Value::Bool(c > 0);
    case BoundBinaryOp::kGtEq:
      return Value::Bool(c >= 0);
    default:
      return Status::Internal("bad comparison op");
  }
}

// Applies a non-COALESCE scalar function to already-evaluated arguments.
// Shared by the row-wise and columnar evaluators.
Result<Value> ApplyCall(const BoundExpr& e, const std::vector<Value>& args) {
  auto null_in = [&](size_t upto) {
    for (size_t i = 0; i < upto && i < args.size(); ++i) {
      if (args[i].is_null()) return true;
    }
    return false;
  };
  switch (e.func) {
    case ScalarFunc::kPow: {
      if (null_in(2)) return Value::Null();
      if (!args[0].is_numeric() || !args[1].is_numeric()) {
        return TypeError("pow", args[0].is_numeric() ? args[1] : args[0]);
      }
      return DoubleOrNull(std::pow(args[0].AsDouble(), args[1].AsDouble()));
    }
    case ScalarFunc::kLn: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_numeric()) return TypeError("ln", args[0]);
      double x = args[0].AsDouble();
      if (x <= 0.0) return Value::Null();
      return Value::Double(std::log(x));
    }
    case ScalarFunc::kLog10: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_numeric()) return TypeError("log", args[0]);
      double x = args[0].AsDouble();
      if (x <= 0.0) return Value::Null();
      return Value::Double(std::log10(x));
    }
    case ScalarFunc::kExp: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_numeric()) return TypeError("exp", args[0]);
      return DoubleOrNull(std::exp(args[0].AsDouble()));
    }
    case ScalarFunc::kSqrt: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_numeric()) return TypeError("sqrt", args[0]);
      double x = args[0].AsDouble();
      if (x < 0.0) return Value::Null();
      return Value::Double(std::sqrt(x));
    }
    case ScalarFunc::kAbs: {
      if (null_in(1)) return Value::Null();
      if (args[0].is_int()) return Value::Int(std::llabs(args[0].AsInt()));
      if (args[0].is_double()) {
        return Value::Double(std::fabs(args[0].AsDouble()));
      }
      return TypeError("abs", args[0]);
    }
    case ScalarFunc::kRound: {
      if (null_in(args.size())) return Value::Null();
      if (!args[0].is_numeric()) return TypeError("round", args[0]);
      double digits = args.size() > 1 ? args[1].AsDouble() : 0.0;
      double scale = std::pow(10.0, digits);
      return DoubleOrNull(std::round(args[0].AsDouble() * scale) / scale);
    }
    case ScalarFunc::kFloor: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_numeric()) return TypeError("floor", args[0]);
      return Value::Int(static_cast<int64_t>(std::floor(args[0].AsDouble())));
    }
    case ScalarFunc::kCeil: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_numeric()) return TypeError("ceil", args[0]);
      return Value::Int(static_cast<int64_t>(std::ceil(args[0].AsDouble())));
    }
    case ScalarFunc::kLower: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_text()) return TypeError("lower", args[0]);
      return Value::Text(AsciiToLower(args[0].AsText()));
    }
    case ScalarFunc::kUpper: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_text()) return TypeError("upper", args[0]);
      std::string s = args[0].AsText();
      for (char& c : s) {
        if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
      }
      return Value::Text(std::move(s));
    }
    case ScalarFunc::kLength: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_text()) return TypeError("length", args[0]);
      return Value::Int(static_cast<int64_t>(args[0].AsText().size()));
    }
    case ScalarFunc::kSubstr: {
      if (null_in(args.size())) return Value::Null();
      if (!args[0].is_text() || !args[1].is_numeric()) {
        return TypeError("substr", args[0].is_text() ? args[1] : args[0]);
      }
      const std::string& s = args[0].AsText();
      // 1-based start per SQL convention.
      int64_t start = static_cast<int64_t>(args[1].AsDouble());
      int64_t len = args.size() > 2 ? static_cast<int64_t>(args[2].AsDouble())
                                    : static_cast<int64_t>(s.size());
      if (start < 1) start = 1;
      if (len < 0) len = 0;
      size_t begin = static_cast<size_t>(start - 1);
      if (begin >= s.size()) return Value::Text("");
      return Value::Text(s.substr(begin, static_cast<size_t>(len)));
    }
    case ScalarFunc::kCoalesce:
      return Status::Internal("coalesce handled above");
    case ScalarFunc::kNullIf: {
      if (args[0].is_null()) return Value::Null();
      if (!args[1].is_null() && Value::Compare(args[0], args[1]) == 0) {
        return Value::Null();
      }
      return args[0];
    }
    case ScalarFunc::kCast: {
      if (!args[1].is_text()) {
        return Status::ExecutionError("CAST target must be a type name");
      }
      if (args[0].is_null()) return Value::Null();
      const std::string& ty = args[1].AsText();
      ValueType target;
      if (EqualsIgnoreCase(ty, "integer") || EqualsIgnoreCase(ty, "int") ||
          EqualsIgnoreCase(ty, "bigint")) {
        target = ValueType::kInt;
      } else if (EqualsIgnoreCase(ty, "real") ||
                 EqualsIgnoreCase(ty, "double") ||
                 EqualsIgnoreCase(ty, "float") ||
                 EqualsIgnoreCase(ty, "numeric")) {
        target = ValueType::kDouble;
      } else if (EqualsIgnoreCase(ty, "text") ||
                 EqualsIgnoreCase(ty, "varchar") ||
                 EqualsIgnoreCase(ty, "char")) {
        target = ValueType::kText;
      } else {
        return Status::ExecutionError("unknown CAST target '" + ty + "'");
      }
      return args[0].CoerceTo(target);
    }
    case ScalarFunc::kMod:
      return EvalArith(BoundBinaryOp::kMod, args[0], args[1]);
    case ScalarFunc::kSign: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_numeric()) return TypeError("sign", args[0]);
      double x = args[0].AsDouble();
      return Value::Int(x > 0 ? 1 : (x < 0 ? -1 : 0));
    }
    case ScalarFunc::kTrim: {
      if (null_in(1)) return Value::Null();
      if (!args[0].is_text()) return TypeError("trim", args[0]);
      std::string_view s = StripWhitespace(args[0].AsText());
      return Value::Text(std::string(s));
    }
    case ScalarFunc::kReplace: {
      if (null_in(3)) return Value::Null();
      if (!args[0].is_text() || !args[1].is_text() || !args[2].is_text()) {
        return TypeError("replace", args[0]);
      }
      const std::string& s = args[0].AsText();
      const std::string& from = args[1].AsText();
      const std::string& to = args[2].AsText();
      if (from.empty()) return args[0];
      std::string out;
      size_t pos = 0;
      while (true) {
        size_t hit = s.find(from, pos);
        if (hit == std::string::npos) {
          out.append(s, pos, std::string::npos);
          break;
        }
        out.append(s, pos, hit - pos);
        out.append(to);
        pos = hit + from.size();
      }
      return Value::Text(std::move(out));
    }
    case ScalarFunc::kInstr: {
      // 1-based position of the first occurrence, 0 when absent (SQLite).
      if (null_in(2)) return Value::Null();
      if (!args[0].is_text() || !args[1].is_text()) {
        return TypeError("instr", args[0].is_text() ? args[1] : args[0]);
      }
      size_t hit = args[0].AsText().find(args[1].AsText());
      return Value::Int(hit == std::string::npos
                            ? 0
                            : static_cast<int64_t>(hit) + 1);
    }
  }
  return Status::Internal("bad scalar function");
}

Result<Value> EvalCall(const BoundExpr& e, const Row& row) {
  // COALESCE short-circuits before evaluating all args.
  if (e.func == ScalarFunc::kCoalesce) {
    for (const auto& arg : e.children) {
      BORNSQL_ASSIGN_OR_RETURN(Value v, Eval(*arg, row));
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  std::vector<Value> args;
  args.reserve(e.children.size());
  for (const auto& arg : e.children) {
    BORNSQL_ASSIGN_OR_RETURN(Value v, Eval(*arg, row));
    args.push_back(std::move(v));
  }
  return ApplyCall(e, args);
}

// Non-logical binary operators over already-evaluated operands. Shared by
// the row-wise and columnar evaluators; AND/OR stay with the callers (their
// laziness is what distinguishes the two paths).
Result<Value> EvalBinaryKernel(BoundBinaryOp op, const Value& a,
                               const Value& b) {
  switch (op) {
    case BoundBinaryOp::kAdd:
    case BoundBinaryOp::kSub:
    case BoundBinaryOp::kMul:
    case BoundBinaryOp::kDiv:
    case BoundBinaryOp::kMod:
      return EvalArith(op, a, b);
    case BoundBinaryOp::kEq:
    case BoundBinaryOp::kNotEq:
    case BoundBinaryOp::kLt:
    case BoundBinaryOp::kLtEq:
    case BoundBinaryOp::kGt:
    case BoundBinaryOp::kGtEq:
      return EvalComparison(op, a, b);
    case BoundBinaryOp::kConcat: {
      if (a.is_null() || b.is_null()) return Value::Null();
      BORNSQL_ASSIGN_OR_RETURN(Value ta, a.CoerceTo(ValueType::kText));
      BORNSQL_ASSIGN_OR_RETURN(Value tb, b.CoerceTo(ValueType::kText));
      return Value::Text(ta.AsText() + tb.AsText());
    }
    case BoundBinaryOp::kLike: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (!a.is_text() || !b.is_text()) {
        return TypeError("LIKE", a.is_text() ? b : a);
      }
      return Value::Bool(LikeMatch(a.AsText(), b.AsText()));
    }
    default:
      return Status::Internal("bad binary op");
  }
}

// Three-valued AND/OR over already-evaluated operands.
Value And3(const Value& a, const Value& b) {
  if (!a.is_null() && !a.Truthy()) return Value::Bool(false);
  if (!b.is_null() && !b.Truthy()) return Value::Bool(false);
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Bool(true);
}

Value Or3(const Value& a, const Value& b) {
  if (!a.is_null() && a.Truthy()) return Value::Bool(true);
  if (!b.is_null() && b.Truthy()) return Value::Bool(true);
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Bool(false);
}

}  // namespace

Result<ScalarFunc> LookupScalarFunc(const std::string& name, size_t arity) {
  const FuncSpec* spec = FindFuncSpec(name);
  if (spec == nullptr) {
    return Status::NotFound("no scalar function named '" + name + "'");
  }
  if (!ArityFits(*spec, arity)) {
    return Status::BindError(StrFormat("function %s() called with %zu args",
                                       spec->name, arity));
  }
  return spec->func;
}

bool IsScalarCall(std::string_view name, size_t arity) {
  const FuncSpec* spec = FindFuncSpec(name);
  return spec != nullptr && ArityFits(*spec, arity);
}

BoundExprPtr BoundLiteral(Value v) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

BoundExprPtr BoundColumn(size_t index) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundKind::kColumn;
  e->column_index = index;
  return e;
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

bool IsConstExpr(const BoundExpr& e) {
  if (e.kind == BoundKind::kColumn || e.kind == BoundKind::kParameter) {
    return false;
  }
  for (const auto& c : e.children) {
    if (!IsConstExpr(*c)) return false;
  }
  return true;
}

Result<Value> Eval(const BoundExpr& e, const Row& row) {
  switch (e.kind) {
    case BoundKind::kLiteral:
      return e.literal;
    case BoundKind::kParameter:
      return Status::Internal(StrFormat(
          "parameter $%zu evaluated without substitution", e.column_index));
    case BoundKind::kColumn:
      if (e.column_index >= row.size()) {
        return Status::Internal(
            StrFormat("column index %zu out of range (row has %zu cells)",
                      e.column_index, row.size()));
      }
      return row[e.column_index];
    case BoundKind::kUnary: {
      BORNSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
      return EvalUnary(e.unary_op, v);
    }
    case BoundKind::kBinary: {
      // AND/OR use three-valued logic with short-circuiting.
      if (e.binary_op == BoundBinaryOp::kAnd) {
        BORNSQL_ASSIGN_OR_RETURN(Value a, Eval(*e.children[0], row));
        if (!a.is_null() && !a.Truthy()) return Value::Bool(false);
        BORNSQL_ASSIGN_OR_RETURN(Value b, Eval(*e.children[1], row));
        if (!b.is_null() && !b.Truthy()) return Value::Bool(false);
        if (a.is_null() || b.is_null()) return Value::Null();
        return Value::Bool(true);
      }
      if (e.binary_op == BoundBinaryOp::kOr) {
        BORNSQL_ASSIGN_OR_RETURN(Value a, Eval(*e.children[0], row));
        if (!a.is_null() && a.Truthy()) return Value::Bool(true);
        BORNSQL_ASSIGN_OR_RETURN(Value b, Eval(*e.children[1], row));
        if (!b.is_null() && b.Truthy()) return Value::Bool(true);
        if (a.is_null() || b.is_null()) return Value::Null();
        return Value::Bool(false);
      }
      BORNSQL_ASSIGN_OR_RETURN(Value a, Eval(*e.children[0], row));
      BORNSQL_ASSIGN_OR_RETURN(Value b, Eval(*e.children[1], row));
      return EvalBinaryKernel(e.binary_op, a, b);
    }
    case BoundKind::kCall:
      return EvalCall(e, row);
    case BoundKind::kCase: {
      size_t n_pairs = (e.children.size() - (e.has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < n_pairs; ++i) {
        BORNSQL_ASSIGN_OR_RETURN(Value cond, Eval(*e.children[2 * i], row));
        if (!cond.is_null() && cond.Truthy()) {
          return Eval(*e.children[2 * i + 1], row);
        }
      }
      if (e.has_else) return Eval(*e.children.back(), row);
      return Value::Null();
    }
    case BoundKind::kIsNull: {
      BORNSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
      return Value::Bool(e.negated ? !v.is_null() : v.is_null());
    }
    case BoundKind::kInSet: {
      BORNSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
      if (v.is_null()) return Value::Null();
      if (e.in_set->values.count(v) > 0) return Value::Bool(!e.negated);
      if (e.in_set->has_null) return Value::Null();
      return Value::Bool(e.negated);
    }
    case BoundKind::kInList: {
      BORNSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < e.children.size(); ++i) {
        BORNSQL_ASSIGN_OR_RETURN(Value item, Eval(*e.children[i], row));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (Value::Compare(v, item) == 0) {
          return Value::Bool(!e.negated);
        }
      }
      if (saw_null) return Value::Null();
      return Value::Bool(e.negated);
    }
  }
  return Status::Internal("bad expression kind");
}

Status EvalChunk(const BoundExpr& e, const DataChunk& chunk,
                 std::vector<Value>* out) {
  const size_t n = chunk.size();
  out->clear();
  switch (e.kind) {
    case BoundKind::kLiteral:
      out->assign(n, e.literal);
      return Status::OK();
    case BoundKind::kParameter:
      return Status::Internal(StrFormat(
          "parameter $%zu evaluated without substitution", e.column_index));
    case BoundKind::kColumn:
      if (e.column_index >= chunk.column_count()) {
        return Status::Internal(
            StrFormat("column index %zu out of range (chunk has %zu columns)",
                      e.column_index, chunk.column_count()));
      }
      *out = chunk.column(e.column_index);
      return Status::OK();
    case BoundKind::kUnary: {
      std::vector<Value> v;
      BORNSQL_RETURN_IF_ERROR(EvalChunk(*e.children[0], chunk, &v));
      out->reserve(n);
      for (size_t i = 0; i < n; ++i) {
        BORNSQL_ASSIGN_OR_RETURN(Value r, EvalUnary(e.unary_op, v[i]));
        out->push_back(std::move(r));
      }
      return Status::OK();
    }
    case BoundKind::kBinary: {
      std::vector<Value> a;
      std::vector<Value> b;
      BORNSQL_RETURN_IF_ERROR(EvalChunk(*e.children[0], chunk, &a));
      BORNSQL_RETURN_IF_ERROR(EvalChunk(*e.children[1], chunk, &b));
      out->reserve(n);
      if (e.binary_op == BoundBinaryOp::kAnd) {
        for (size_t i = 0; i < n; ++i) out->push_back(And3(a[i], b[i]));
        return Status::OK();
      }
      if (e.binary_op == BoundBinaryOp::kOr) {
        for (size_t i = 0; i < n; ++i) out->push_back(Or3(a[i], b[i]));
        return Status::OK();
      }
      for (size_t i = 0; i < n; ++i) {
        BORNSQL_ASSIGN_OR_RETURN(Value r,
                                 EvalBinaryKernel(e.binary_op, a[i], b[i]));
        out->push_back(std::move(r));
      }
      return Status::OK();
    }
    case BoundKind::kCall: {
      const size_t k = e.children.size();
      std::vector<std::vector<Value>> argcols(k);
      for (size_t j = 0; j < k; ++j) {
        BORNSQL_RETURN_IF_ERROR(EvalChunk(*e.children[j], chunk, &argcols[j]));
      }
      out->reserve(n);
      if (e.func == ScalarFunc::kCoalesce) {
        for (size_t i = 0; i < n; ++i) {
          Value v = Value::Null();
          for (size_t j = 0; j < k; ++j) {
            if (!argcols[j][i].is_null()) {
              v = argcols[j][i];
              break;
            }
          }
          out->push_back(std::move(v));
        }
        return Status::OK();
      }
      std::vector<Value> args(k);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < k; ++j) args[j] = argcols[j][i];
        BORNSQL_ASSIGN_OR_RETURN(Value r, ApplyCall(e, args));
        out->push_back(std::move(r));
      }
      return Status::OK();
    }
    case BoundKind::kCase: {
      const size_t n_pairs = (e.children.size() - (e.has_else ? 1 : 0)) / 2;
      std::vector<std::vector<Value>> conds(n_pairs);
      std::vector<std::vector<Value>> branches(n_pairs);
      for (size_t p = 0; p < n_pairs; ++p) {
        BORNSQL_RETURN_IF_ERROR(
            EvalChunk(*e.children[2 * p], chunk, &conds[p]));
        BORNSQL_RETURN_IF_ERROR(
            EvalChunk(*e.children[2 * p + 1], chunk, &branches[p]));
      }
      std::vector<Value> else_col;
      if (e.has_else) {
        BORNSQL_RETURN_IF_ERROR(
            EvalChunk(*e.children.back(), chunk, &else_col));
      }
      out->reserve(n);
      for (size_t i = 0; i < n; ++i) {
        Value v = e.has_else ? else_col[i] : Value::Null();
        for (size_t p = 0; p < n_pairs; ++p) {
          const Value& c = conds[p][i];
          if (!c.is_null() && c.Truthy()) {
            v = branches[p][i];
            break;
          }
        }
        out->push_back(std::move(v));
      }
      return Status::OK();
    }
    case BoundKind::kIsNull: {
      std::vector<Value> v;
      BORNSQL_RETURN_IF_ERROR(EvalChunk(*e.children[0], chunk, &v));
      out->reserve(n);
      for (size_t i = 0; i < n; ++i) {
        out->push_back(
            Value::Bool(e.negated ? !v[i].is_null() : v[i].is_null()));
      }
      return Status::OK();
    }
    case BoundKind::kInSet: {
      std::vector<Value> v;
      BORNSQL_RETURN_IF_ERROR(EvalChunk(*e.children[0], chunk, &v));
      out->reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (v[i].is_null()) {
          out->push_back(Value::Null());
        } else if (e.in_set->values.count(v[i]) > 0) {
          out->push_back(Value::Bool(!e.negated));
        } else if (e.in_set->has_null) {
          out->push_back(Value::Null());
        } else {
          out->push_back(Value::Bool(e.negated));
        }
      }
      return Status::OK();
    }
    case BoundKind::kInList: {
      std::vector<std::vector<Value>> cols(e.children.size());
      for (size_t j = 0; j < e.children.size(); ++j) {
        BORNSQL_RETURN_IF_ERROR(EvalChunk(*e.children[j], chunk, &cols[j]));
      }
      out->reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = cols[0][i];
        if (v.is_null()) {
          out->push_back(Value::Null());
          continue;
        }
        bool saw_null = false;
        bool hit = false;
        for (size_t j = 1; j < cols.size(); ++j) {
          const Value& item = cols[j][i];
          if (item.is_null()) {
            saw_null = true;
            continue;
          }
          if (Value::Compare(v, item) == 0) {
            hit = true;
            break;
          }
        }
        if (hit) {
          out->push_back(Value::Bool(!e.negated));
        } else if (saw_null) {
          out->push_back(Value::Null());
        } else {
          out->push_back(Value::Bool(e.negated));
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("bad expression kind");
}

Status EvalChunkChecked(const BoundExpr& e, const DataChunk& chunk,
                        std::vector<Value>* out) {
  Status s = EvalChunk(e, chunk, out);
  if (s.ok()) return s;
  // The vectorized pass errored. That error may come from a subexpression
  // row-wise evaluation would never reach (a guarded CASE branch, a
  // short-circuited AND/OR side, a COALESCE tail), so re-evaluate row by
  // row: rows whose error is real re-raise it, masked ones succeed.
  out->clear();
  out->reserve(chunk.size());
  for (size_t i = 0; i < chunk.size(); ++i) {
    const Row row = chunk.MaterializeRow(i);
    BORNSQL_ASSIGN_OR_RETURN(Value v, Eval(e, row));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

Result<const std::vector<Value>*> EvalChunkRef(const BoundExpr& e,
                                               const DataChunk& chunk,
                                               std::vector<Value>* scratch) {
  if (e.kind == BoundKind::kColumn) {
    if (e.column_index >= chunk.column_count()) {
      return Status::Internal(
          StrFormat("column index %zu out of range (chunk has %zu columns)",
                    e.column_index, chunk.column_count()));
    }
    return &chunk.column(e.column_index);
  }
  BORNSQL_RETURN_IF_ERROR(EvalChunkChecked(e, chunk, scratch));
  return scratch;
}

}  // namespace bornsql::exec
