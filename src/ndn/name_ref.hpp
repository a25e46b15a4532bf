/// @file
/// Reference NDN name: the original component-vector implementation,
/// retained as the behavioral oracle for the flat ndn::Name
/// (src/ndn/name.hpp).
///
/// Every component owns its own byte vector and the incremental prefix
/// hashes sit in a separate vector. Hash values, equality, ordering,
/// prefix operations and URI form must match the flat Name exactly;
/// tests/test_name_flat.cpp drives both with identical randomized names.
/// Not used on any forwarding path.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace dapes::ndn::ref {

/// One name component (opaque bytes; printable ASCII in practice).
class Component {
 public:
  /// Empty component.
  Component() = default;
  /// Component from owned bytes.
  explicit Component(common::Bytes value) : value_(std::move(value)) {}
  /// Component from a string (bytes copied).
  explicit Component(std::string_view str)
      : value_(str.begin(), str.end()) {}

  /// Component carrying a decimal sequence number.
  static Component from_number(uint64_t number);

  /// Parse as a decimal number if the component is all digits.
  std::optional<uint64_t> to_number() const;

  /// The raw component bytes.
  const common::Bytes& value() const { return value_; }
  /// The bytes as a std::string (components are ASCII in practice).
  std::string to_string() const {
    return std::string(value_.begin(), value_.end());
  }

  /// Byte-wise equality.
  bool operator==(const Component&) const = default;
  /// Byte-wise lexicographic order.
  auto operator<=>(const Component&) const = default;

 private:
  common::Bytes value_;
};

/// Hierarchical NDN name as a vector of owning components, with a lazily
/// filled vector of FNV-1a prefix hashes.
class Name {
 public:
  /// The empty name "/".
  Name() = default;

  /// Parse a URI like "/a/b/c"; empty components are skipped.
  explicit Name(std::string_view uri);

  /// Name from a component list: Name{"a", "b", "c"} == "/a/b/c".
  Name(std::initializer_list<std::string_view> components);

  /// Chainable append; a warm hash cache is extended incrementally.
  Name& append(Component c);
  /// Append a string component; same cache-extension contract.
  Name& append(std::string_view str);
  /// Append a decimal sequence-number component.
  Name& append_number(uint64_t number);

  /// A copy of this name with one more component.
  Name appended(std::string_view str) const;
  /// A copy of this name with a sequence-number component appended.
  Name appended_number(uint64_t number) const;

  /// Number of components.
  size_t size() const { return components_.size(); }
  /// True for the empty name.
  bool empty() const { return components_.empty(); }
  /// Bounds-checked component access.
  const Component& at(size_t i) const { return components_.at(i); }
  /// Unchecked component access.
  const Component& operator[](size_t i) const { return components_[i]; }

  /// First @p n components; inherits the matching slice of a warm cache.
  Name prefix(size_t n) const;

  /// Drop the last @p n components (default 1).
  Name get_prefix_dropping(size_t n = 1) const;

  /// True if *this is a (non-strict) prefix of @p other.
  bool is_prefix_of(const Name& other) const;

  /// The "/a/b/c" URI form.
  std::string to_uri() const;

  /// FNV-1a hash of the whole name (cached; one pass on first use).
  size_t hash() const {
    ensure_hashes();
    return hashes_.back();
  }

  /// Hash of the first @p n components (clamped).
  size_t prefix_hash(size_t n) const {
    ensure_hashes();
    return hashes_[n < components_.size() ? n : components_.size()];
  }

  /// Whether the hash cache is populated.
  bool has_hash_cache() const {
    return hashes_.size() == components_.size() + 1;
  }

  /// Equality and ordering are component-wise; the hash cache is ignored.
  bool operator==(const Name& other) const {
    return components_ == other.components_;
  }
  /// Component-wise lexicographic order.
  auto operator<=>(const Name& other) const {
    return components_ <=> other.components_;
  }

  /// All components in order.
  const std::vector<Component>& components() const { return components_; }

 private:
  void ensure_hashes() const;

  std::vector<Component> components_;
  /// hashes_[i] = FNV-1a over the first i components; valid iff
  /// size() + 1 entries are present (empty = not computed yet).
  mutable std::vector<size_t> hashes_;
};

}  // namespace dapes::ndn::ref
