/// @file
/// NDN names.
///
/// A Name is an ordered list of byte-string components, printed as a URI
/// ("/damaged-bridge-1533783192/bridge-picture/0"). DAPES relies on the
/// hierarchy: collection prefix -> file name -> packet sequence number, so
/// prefix tests and numeric final components get first-class helpers.
///
/// Layout. A Name is a flat value: one contiguous buffer with every
/// component's bytes back to back, an array of component end offsets, and
/// the prefix-hash array below. Each of the three keeps small contents
/// inline (kInlineBytes bytes, kInlineComponents components) and spills to
/// one heap block only beyond that, so copying, building and decoding a
/// typical DAPES name allocates nothing, `==` is two memcmps and a prefix
/// test is two memcmps over the shorter name. `operator[]` returns a
/// non-owning ComponentView into the buffer; the owning Component is for
/// building names. src/ndn/name_ref.hpp keeps the original
/// vector-of-components Name as the equivalence oracle.
///
/// Hashes. Names carry a lazily computed *incremental* hash cache: one
/// FNV-1a pass over the component bytes yields the hash of every prefix
/// depth (`prefix_hash(n)`), with the full-name hash as the last step. The
/// data plane (src/ndn/name_tree.hpp) is keyed on these hashes, so a
/// forwarder hop probes its tables without re-reading name bytes, and
/// longest-prefix match never materializes prefix Names. The cache is
/// extended in place by append (the next prefix hash derives from the
/// previous one), inherited by prefix(), seeded by the wire decoder, and
/// recomputed on demand otherwise. Hash values are identical to the
/// historic std::hash<Name> FNV-1a scheme, so fingerprints derived from
/// them are stable.
///
/// The cache is `mutable` and filled on first use: a const Name is safe to
/// share within one simulation trial (single-threaded), not across trial
/// threads.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/bytes.hpp"

namespace dapes::ndn {

namespace detail {

/// Growable array of trivially copyable T that holds up to N elements in
/// the object itself and moves to a single heap block beyond that.
/// Appending a range that aliases the array's own contents is safe, also
/// across the move to the heap.
template <typename T, size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Empty, inline.
  InlineVec() = default;
  /// Copy; allocates only when @p other is too large to sit inline.
  InlineVec(const InlineVec& other) { append(other.data(), other.size_); }
  /// Move; steals a heap block, copies inline contents, empties @p other.
  InlineVec(InlineVec&& other) noexcept { take(other); }
  /// Copy-assign, reusing this array's capacity.
  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) {
      size_ = 0;
      append(other.data(), other.size_);
    }
    return *this;
  }
  /// Move-assign; see the move constructor.
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  /// Frees the heap block, if any.
  ~InlineVec() { release(); }

  /// Element count.
  size_t size() const { return size_; }
  /// The elements (never null).
  const T* data() const { return on_heap() ? heap_ : inline_; }
  /// Unchecked element access.
  const T& operator[](size_t i) const { return data()[i]; }
  /// Unchecked mutable element access.
  T& operator[](size_t i) { return mutable_data()[i]; }
  /// The last element; the array must not be empty.
  const T& back() const { return data()[size_ - 1]; }

  /// Drop every element; the capacity is kept.
  void clear() { size_ = 0; }

  /// Append one element.
  void push_back(T value) { append(&value, 1); }

  /// Append @p n elements starting at @p src, which may point into this
  /// array.
  void append(const T* src, size_t n) {
    if (n == 0) return;
    if (n > cap_ - size_) {
      grow(src, n);
      return;
    }
    std::memcpy(mutable_data() + size_, src, n * sizeof(T));
    size_ += static_cast<uint32_t>(n);
  }

 private:
  bool on_heap() const { return cap_ > N; }
  T* mutable_data() { return on_heap() ? heap_ : inline_; }

  /// Move to a larger heap block and append [src, src + n). The old
  /// storage stays intact until both copies are done, so @p src may
  /// alias it (inline storage shares its bytes with heap_).
  void grow(const T* src, size_t n) {
    const size_t need = size_t{size_} + n;
    if (need > UINT32_MAX) throw std::length_error("InlineVec: too large");
    size_t cap = std::max<size_t>(need, size_t{cap_} * 2);
    if (cap > UINT32_MAX) cap = UINT32_MAX;
    T* block = new T[cap];
    std::memcpy(block, data(), size_t{size_} * sizeof(T));
    std::memcpy(block + size_, src, n * sizeof(T));
    release();
    heap_ = block;
    cap_ = static_cast<uint32_t>(cap);
    size_ = static_cast<uint32_t>(need);
  }

  void release() {
    if (on_heap()) delete[] heap_;
    cap_ = N;
    size_ = 0;
  }

  /// Take @p other's contents (heap block or inline copy), leaving it
  /// empty and inline. *this must hold no heap block.
  void take(InlineVec& other) {
    if (other.on_heap()) {
      heap_ = other.heap_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.cap_ = N;
      other.size_ = 0;
    } else {
      std::memcpy(inline_, other.inline_, size_t{other.size_} * sizeof(T));
      size_ = other.size_;
      other.size_ = 0;
    }
  }

  union {
    T inline_[N]{};  ///< valid while cap_ == N
    T* heap_;        ///< valid while cap_ > N
  };
  uint32_t size_ = 0;
  uint32_t cap_ = N;
};

}  // namespace detail

/// One owning name component (opaque bytes; printable ASCII in practice).
/// Used to build names; a Name hands out ComponentView instead.
class Component {
 public:
  /// Empty component.
  Component() = default;
  /// Component from owned bytes.
  explicit Component(common::Bytes value) : value_(std::move(value)) {}
  /// Component from a string (bytes copied).
  explicit Component(std::string_view str)
      : value_(str.begin(), str.end()) {}

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

/// Non-owning view of one component's bytes — inside a Name's buffer, a
/// Component, or a decoded wire buffer. Valid while the viewed bytes are
/// neither freed nor moved: a Name's views die with any append or
/// assignment to that Name.
class ComponentView {
 public:
  /// Empty component.
  ComponentView() = default;
  /// View over raw bytes.
  explicit ComponentView(common::BytesView bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  /// View over an owning component (implicit: a Component can go where
  /// a view is expected).
  ComponentView(const Component& c)  // NOLINT(google-explicit-constructor)
      : data_(c.value().data()), size_(c.value().size()) {}

  /// The raw component bytes.
  common::BytesView value() const { return {data_, size_}; }
  /// The bytes as characters (components are ASCII in practice).
  std::string_view str() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }
  /// An owning std::string copy of the bytes.
  std::string to_string() const { return std::string(str()); }
  /// Byte length.
  size_t size() const { return size_; }

  /// Parse as a decimal number if the component is all digits.
  std::optional<uint64_t> to_number() const;

  /// Byte-wise equality.
  friend bool operator==(ComponentView a, ComponentView b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }
  /// Byte-wise lexicographic order (unsigned bytes; a proper prefix
  /// sorts first) — the order of Component and std::vector<uint8_t>.
  friend std::strong_ordering operator<=>(ComponentView a, ComponentView b) {
    const size_t n = a.size_ < b.size_ ? a.size_ : b.size_;
    const int c = n == 0 ? 0 : std::memcmp(a.data_, b.data_, n);
    if (c != 0) {
      return c < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
    }
    return a.size_ <=> b.size_;
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Hierarchical NDN name: flat inline-storage value type with cached
/// incremental prefix hashes (see file comment).
class Name {
 public:
  /// Component bytes held without a heap allocation. Every name the
  /// DAPES workloads build is at most this long.
  static constexpr size_t kInlineBytes = 48;
  /// Components held without a heap allocation (their end offsets, and
  /// the kInlineComponents + 1 prefix hashes).
  static constexpr size_t kInlineComponents = 5;

  /// The empty name "/".
  Name() = default;

  /// Parse a URI like "/a/b/c". Empty string or "/" yields the empty name.
  /// Components may not contain '/'. No percent-decoding (the DAPES
  /// namespace is plain ASCII).
  explicit Name(std::string_view uri);

  /// Name from a component list: Name{"a", "b", "c"} == "/a/b/c".
  Name(std::initializer_list<std::string_view> components);

  /// Builder-style append; returns *this for chaining. A warm hash cache
  /// is extended incrementally (one component's bytes), never recomputed.
  /// @p c may view this name's own components.
  Name& append(ComponentView c);
  /// Append a string component; same cache-extension contract.
  Name& append(std::string_view str);
  /// Append a decimal sequence-number component.
  Name& append_number(uint64_t number);

  /// A copy of this name with one more component.
  Name appended(std::string_view str) const;
  /// A copy of this name with a sequence-number component appended.
  Name appended_number(uint64_t number) const;

  /// Number of components.
  size_t size() const { return ends_.size(); }
  /// True for the empty name.
  bool empty() const { return ends_.size() == 0; }
  /// Bounds-checked component access.
  /// @throws std::out_of_range if @p i >= size().
  ComponentView at(size_t i) const;
  /// Unchecked component access.
  ComponentView operator[](size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return ComponentView(
        common::BytesView(bytes_.data() + begin, ends_[i] - begin));
  }

  /// First @p n components. Inherits the matching slice of a warm hash
  /// cache.
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

  /// Hash of the first @p n components (clamped), from the same cached
  /// pass — prefix probes cost no extra hashing.
  size_t prefix_hash(size_t n) const {
    ensure_hashes();
    return hashes_[n < size() ? n : size()];
  }

  /// Whether the hash cache is populated (tests and instrumentation).
  bool has_hash_cache() const { return hashes_.size() == size() + 1; }

  /// Equality is component-wise (equal end offsets and equal bytes); the
  /// hash cache is ignored.
  bool operator==(const Name& other) const;
  /// Component-wise lexicographic order; the hash cache is ignored.
  std::strong_ordering operator<=>(const Name& other) const;

 private:
  void ensure_hashes() const;

  /// Every component's bytes, back to back.
  detail::InlineVec<uint8_t, kInlineBytes> bytes_;
  /// ends_[i] = offset one past component i in bytes_.
  detail::InlineVec<uint32_t, kInlineComponents> ends_;
  /// hashes_[i] = FNV-1a over the first i components; valid iff
  /// size() + 1 entries are present (empty = not computed yet).
  mutable detail::InlineVec<size_t, kInlineComponents + 1> hashes_;
};

}  // namespace dapes::ndn

/// std::hash support: delegates to the Name's cached FNV-1a hash.
template <>
struct std::hash<dapes::ndn::Name> {
  /// The name's full hash (fills a cold cache on first use).
  size_t operator()(const dapes::ndn::Name& name) const {
    return name.hash();
  }
};
