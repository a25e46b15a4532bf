#include "ndn/name_ref.hpp"

#include <charconv>
#include <stdexcept>

namespace dapes::ndn::ref {

namespace {

// The historic std::hash<Name> scheme: FNV-1a over component bytes with a
// 0xff separator before each component. Kept bit-for-bit stable so
// hash-derived fingerprints (PIT dead-nonce list) do not shift.
constexpr size_t kFnvOffset = 1469598103934665603ULL;
constexpr size_t kFnvPrime = 1099511628211ULL;

size_t fnv_extend(size_t h, const Component& c) {
  h ^= 0xff;  // separator: /ab/c and /a/bc hash differently
  h *= kFnvPrime;
  for (uint8_t b : c.value()) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

void Name::ensure_hashes() const {
  if (has_hash_cache()) return;
  hashes_.clear();
  hashes_.reserve(components_.size() + 1);
  size_t h = kFnvOffset;
  hashes_.push_back(h);
  for (const auto& c : components_) {
    h = fnv_extend(h, c);
    hashes_.push_back(h);
  }
}

Component Component::from_number(uint64_t number) {
  return Component(std::to_string(number));
}

std::optional<uint64_t> Component::to_number() const {
  if (value_.empty()) return std::nullopt;
  uint64_t out = 0;
  const char* begin = reinterpret_cast<const char*>(value_.data());
  const char* end = begin + value_.size();
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
      components_.emplace_back(comp);
    }
    pos = slash + 1;
  }
}

Name::Name(std::initializer_list<std::string_view> components) {
  for (auto c : components) {
    components_.emplace_back(c);
  }
}

Name& Name::append(Component c) {
  if (has_hash_cache()) {
    hashes_.push_back(fnv_extend(hashes_.back(), c));
  } else {
    hashes_.clear();  // a stale partial cache must not survive the append
  }
  components_.push_back(std::move(c));
  return *this;
}

Name& Name::append(std::string_view str) { return append(Component(str)); }

Name& Name::append_number(uint64_t number) {
  return append(Component::from_number(number));
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
  n = std::min(n, components_.size());
  out.components_.assign(components_.begin(), components_.begin() + n);
  if (has_hash_cache()) {
    out.hashes_.assign(hashes_.begin(), hashes_.begin() + n + 1);
  }
  return out;
}

Name Name::get_prefix_dropping(size_t n) const {
  if (n >= components_.size()) return Name();
  return prefix(components_.size() - n);
}

bool Name::is_prefix_of(const Name& other) const {
  if (components_.size() > other.components_.size()) return false;
  for (size_t i = 0; i < components_.size(); ++i) {
    if (components_[i] != other.components_[i]) return false;
  }
  return true;
}

std::string Name::to_uri() const {
  if (components_.empty()) return "/";
  std::string out;
  for (const auto& c : components_) {
    out.push_back('/');
    out += c.to_string();
  }
  return out;
}

}  // namespace dapes::ndn::ref
