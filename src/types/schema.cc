#include "types/schema.h"

#include "common/strings.h"

namespace bornsql {

size_t Schema::Find(std::string_view qualifier, std::string_view name) const {
  size_t found = kNpos;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& c = columns_[i];
    if (!EqualsIgnoreCase(c.name, name)) continue;
    if (!qualifier.empty() && !EqualsIgnoreCase(c.qualifier, qualifier))
      continue;
    if (found != kNpos) return kAmbiguous;
    found = i;
  }
  return found;
}

Result<size_t> Schema::Resolve(const std::string& qualifier,
                               const std::string& name) const {
  const size_t found = Find(qualifier, name);
  if (found < kAmbiguous) return found;
  const std::string ref = qualifier.empty() ? name : qualifier + "." + name;
  if (found == kAmbiguous) {
    return Status::BindError("ambiguous column reference '" + ref + "'");
  }
  return Status::NotFound("column '" + ref + "' not found");
}

size_t Schema::FindUnqualified(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return kNpos;
}

Schema Schema::WithQualifier(const std::string& alias) const {
  Schema out;
  out.columns_.reserve(columns_.size());
  for (const Column& c : columns_) {
    out.columns_.push_back(Column{alias, c.name, c.type});
  }
  return out;
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  Schema out;
  out.columns_.reserve(left.size() + right.size());
  out.columns_.insert(out.columns_.end(), left.columns_.begin(),
                      left.columns_.end());
  out.columns_.insert(out.columns_.end(), right.columns_.begin(),
                      right.columns_.end());
  return out;
}

std::vector<std::string> Schema::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const Column& c : columns_) names.push_back(c.name);
  return names;
}

}  // namespace bornsql
