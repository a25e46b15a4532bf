#include "ndn/name.hpp"

#include <charconv>
#include <stdexcept>

namespace dapes::ndn {

namespace {

// The historic std::hash<Name> scheme: FNV-1a over component bytes with a
// 0xff separator before each component. Kept bit-for-bit stable so
// hash-derived fingerprints (PIT dead-nonce list) do not shift.
constexpr size_t kFnvOffset = 1469598103934665603ULL;
constexpr size_t kFnvPrime = 1099511628211ULL;

size_t fnv_extend(size_t h, ComponentView c) {
  h ^= 0xff;  // separator: /ab/c and /a/bc hash differently
  h *= kFnvPrime;
  for (uint8_t b : c.value()) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

ComponentView view_of(std::string_view str) {
  return ComponentView(common::BytesView(
      reinterpret_cast<const uint8_t*>(str.data()), str.size()));
}

}  // namespace

void Name::ensure_hashes() const {
  if (has_hash_cache()) return;
  hashes_.clear();
  size_t h = kFnvOffset;
  hashes_.push_back(h);
  for (size_t i = 0; i < size(); ++i) {
    h = fnv_extend(h, (*this)[i]);
    hashes_.push_back(h);
  }
}

std::optional<uint64_t> Component::to_number() const {
  return ComponentView(*this).to_number();
}

std::optional<uint64_t> ComponentView::to_number() const {
  if (size_ == 0) return std::nullopt;
  uint64_t out = 0;
  const char* begin = reinterpret_cast<const char*>(data_);
  const char* end = begin + size_;
  auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

Name::Name(std::string_view uri) {
  size_t pos = 0;
  if (!uri.empty() && uri.front() == '/') pos = 1;
  while (pos < uri.size()) {
    size_t slash = uri.find('/', pos);
    if (slash == std::string_view::npos) slash = uri.size();
    std::string_view comp = uri.substr(pos, slash - pos);
    if (!comp.empty()) {
      append(comp);
    }
    pos = slash + 1;
  }
}

Name::Name(std::initializer_list<std::string_view> components) {
  for (auto c : components) {
    append(c);
  }
}

ComponentView Name::at(size_t i) const {
  if (i >= size()) throw std::out_of_range("Name::at: component index");
  return (*this)[i];
}

Name& Name::append(ComponentView c) {
  // Hash before the byte append: c may view this name's own buffer,
  // which the append can move to the heap.
  const bool warm = has_hash_cache();
  const size_t h = warm ? fnv_extend(hashes_.back(), c) : 0;
  bytes_.append(c.value().data(), c.size());
  ends_.push_back(static_cast<uint32_t>(bytes_.size()));
  if (warm) {
    hashes_.push_back(h);
  } else {
    hashes_.clear();  // a stale partial cache must not survive the append
  }
  return *this;
}

Name& Name::append(std::string_view str) { return append(view_of(str)); }

Name& Name::append_number(uint64_t number) {
  char buf[20];  // UINT64_MAX has 20 decimal digits
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), number);
  (void)ec;  // cannot fail: the buffer fits every uint64_t
  return append(std::string_view(buf, static_cast<size_t>(end - buf)));
}

Name Name::appended(std::string_view str) const {
  Name copy = *this;
  copy.append(str);
  return copy;
}

Name Name::appended_number(uint64_t number) const {
  Name copy = *this;
  copy.append_number(number);
  return copy;
}

Name Name::prefix(size_t n) const {
  Name out;
  n = std::min(n, size());
  out.bytes_.append(bytes_.data(), n == 0 ? 0 : ends_[n - 1]);
  out.ends_.append(ends_.data(), n);
  if (has_hash_cache()) {
    out.hashes_.append(hashes_.data(), n + 1);
  }
  return out;
}

Name Name::get_prefix_dropping(size_t n) const {
  if (n >= size()) return Name();
  return prefix(size() - n);
}

bool Name::is_prefix_of(const Name& other) const {
  // Equal end offsets over the shorter name mean equal component
  // boundaries; then its whole buffer must match other's leading bytes.
  const size_t n = size();
  if (n > other.size()) return false;
  return std::memcmp(ends_.data(), other.ends_.data(), n * sizeof(uint32_t)) ==
             0 &&
         std::memcmp(bytes_.data(), other.bytes_.data(), bytes_.size()) == 0;
}

bool Name::operator==(const Name& other) const {
  return size() == other.size() && is_prefix_of(other);
}

std::strong_ordering Name::operator<=>(const Name& other) const {
  const size_t n = std::min(size(), other.size());
  for (size_t i = 0; i < n; ++i) {
    if (auto c = (*this)[i] <=> other[i]; c != 0) return c;
  }
  return size() <=> other.size();
}

std::string Name::to_uri() const {
  if (empty()) return "/";
  std::string out;
  out.reserve(bytes_.size() + size());
  for (size_t i = 0; i < size(); ++i) {
    out.push_back('/');
    out += (*this)[i].str();
  }
  return out;
}

}  // namespace dapes::ndn
