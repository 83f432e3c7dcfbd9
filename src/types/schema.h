// Output schemas for tables and operators: ordered, optionally qualified
// column names plus declared types.
#ifndef BORNSQL_TYPES_SCHEMA_H_
#define BORNSQL_TYPES_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace bornsql {

struct Column {
  // Qualifier (table name or alias) for name resolution; empty for computed
  // columns without a source table.
  std::string qualifier;
  std::string name;
  // Declared type; kNull means "dynamic / unspecified".
  ValueType type = ValueType::kNull;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t size() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  void Add(Column c) { columns_.push_back(std::move(c)); }

  static constexpr size_t kNpos = static_cast<size_t>(-1);
  static constexpr size_t kAmbiguous = kNpos - 1;

  // Index of the one column `name` (optionally qualified) refers to, kNpos
  // if no column matches, kAmbiguous if several do. Matching is
  // case-insensitive on both qualifier and name. Allocates nothing.
  size_t Find(std::string_view qualifier, std::string_view name) const;

  // Find with errors: NotFound if no column matches, BindError if the
  // reference is ambiguous.
  Result<size_t> Resolve(const std::string& qualifier,
                         const std::string& name) const;

  // Index of the first column with this (unqualified) name, or npos.
  size_t FindUnqualified(const std::string& name) const;

  // Returns a copy with every column's qualifier replaced by `alias`.
  Schema WithQualifier(const std::string& alias) const;

  // Concatenation for joins: left columns then right columns.
  static Schema Concat(const Schema& left, const Schema& right);

  std::vector<std::string> ColumnNames() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace bornsql

#endif  // BORNSQL_TYPES_SCHEMA_H_
