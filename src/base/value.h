#ifndef QIMAP_BASE_VALUE_H_
#define QIMAP_BASE_VALUE_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace qimap {

/// The kind of an individual value appearing in instances and dependencies.
///
/// Following the paper (Section 2), we work with a fixed infinite set
/// `Const` of constants and a disjoint infinite set `Var` of (labeled)
/// nulls. In addition, "canonical instances" such as the paper's
/// `I_beta(x,z)` contain *variables* in their active domain, so variables
/// are first-class values here as well.
enum class ValueKind : uint8_t {
  kConstant = 0,  ///< A named constant from `Const`.
  kNull = 1,      ///< A labeled null from `Var` (written `_N<k>`).
  kVariable = 2,  ///< A named variable (only in dependencies / canonical
                  ///< instances).
};

/// An individual value: a constant, a labeled null, or a variable.
///
/// Values are small (8 bytes), trivially copyable, totally ordered, and
/// hashable. Constant and variable names are interned in a process-wide
/// table; nulls are identified by a numeric label.
class Value {
 public:
  /// Constructs the constant named `name` (interned; same name == same
  /// value).
  static Value MakeConstant(std::string_view name);
  /// Constructs the labeled null `_N<label>`.
  static Value MakeNull(uint32_t label);
  /// Constructs the variable named `name` (interned).
  static Value MakeVariable(std::string_view name);

  /// Default-constructs the constant with interned id 0; prefer the
  /// factories.
  Value() : kind_(ValueKind::kConstant), id_(0) {}

  ValueKind kind() const { return kind_; }
  bool IsConstant() const { return kind_ == ValueKind::kConstant; }
  bool IsNull() const { return kind_ == ValueKind::kNull; }
  bool IsVariable() const { return kind_ == ValueKind::kVariable; }

  /// The interned name id (constants, variables) or the numeric label
  /// (nulls).
  uint32_t id() const { return id_; }

  /// Renders the value: constants and variables print their name; nulls
  /// print as `_N<label>`.
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) = default;
  friend auto operator<=>(const Value& a, const Value& b) = default;

 private:
  Value(ValueKind kind, uint32_t id) : kind_(kind), id_(id) {}

  ValueKind kind_;
  uint32_t id_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// A value's integer code, `(kind << 32) | id`: unique per value, and
/// codes order exactly like Value's (kind, id) comparison, so sorting
/// codes sorts values.
inline uint64_t ValueCode(const Value& v) {
  return (static_cast<uint64_t>(v.kind()) << 32) | v.id();
}

/// Hash functor for Value, usable with unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const {
    return std::hash<uint64_t>{}(ValueCode(v));
  }
};

}  // namespace qimap

#endif  // QIMAP_BASE_VALUE_H_
