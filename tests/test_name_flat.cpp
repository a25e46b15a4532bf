// Randomized equivalence suite: the flat inline-storage ndn::Name against
// the retained vector-of-components ndn::ref::Name, plus deterministic
// edge cases for the inline/heap buffer handling.
//
// Every random name is built twice from the same component bytes, once
// per implementation; every observable must then agree: hashes and
// prefix hashes, equality, the sign of <=>, std::map order, prefix
// operations, URI form, and TLV encode/decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ndn/name.hpp"
#include "ndn/name_ref.hpp"
#include "ndn/packet.hpp"
#include "ndn/tlv.hpp"

namespace dapes::ndn {
namespace {

using common::Bytes;
using common::BytesView;
using common::Rng;

constexpr int kSeeds = 12;
constexpr int kNamesPerSeed = 150;

struct Pair {
  Name flat;
  ref::Name ref;
};

Bytes random_component(Rng& rng) {
  // Mostly short ASCII, sometimes empty, sometimes raw bytes including
  // 0x00/0xff, sometimes long enough to spill the inline byte buffer.
  size_t len = rng.next_below(10);
  if (rng.chance(0.1)) len = 0;
  if (rng.chance(0.05)) len = 40 + rng.next_below(40);
  const bool raw = rng.chance(0.3);
  Bytes out(len);
  for (auto& b : out) {
    b = raw ? static_cast<uint8_t>(rng.next_below(256))
            : static_cast<uint8_t>('a' + rng.next_below(3));
  }
  if (raw && len > 0 && rng.chance(0.5)) out[0] = rng.chance(0.5) ? 0x00 : 0xff;
  return out;
}

// Names drawn from a small per-seed component pool so equal names, shared
// prefixes and near-misses are common; depth runs past the inline
// component capacity.
Pair random_pair(Rng& rng, const std::vector<Bytes>& pool) {
  Pair p;
  const size_t depth = rng.next_below(Name::kInlineComponents + 4);
  for (size_t i = 0; i < depth; ++i) {
    Bytes c = rng.chance(0.8) ? pool[rng.next_below(pool.size())]
                              : random_component(rng);
    p.flat.append(Component(c));
    p.ref.append(ref::Component(std::move(c)));
  }
  return p;
}

std::vector<Pair> random_pairs(uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> pool;
  for (int i = 0; i < 5; ++i) pool.push_back(random_component(rng));
  std::vector<Pair> out;
  for (int i = 0; i < kNamesPerSeed; ++i) {
    out.push_back(random_pair(rng, pool));
    // Warm half the caches (both twins alike) so warm/cold mixes are
    // compared too.
    if (rng.chance(0.5)) {
      (void)out.back().flat.hash();
      (void)out.back().ref.hash();
    }
  }
  return out;
}

bool same_components(const Name& flat, const ref::Name& r) {
  if (flat.size() != r.size()) return false;
  for (size_t i = 0; i < flat.size(); ++i) {
    const BytesView a = flat[i].value();
    const Bytes& b = r[i].value();
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
  }
  return true;
}

int sign(std::strong_ordering o) { return o < 0 ? -1 : (o > 0 ? 1 : 0); }

Bytes encode(const Name& name) {
  tlv::Writer w;
  append_name(w, name);
  return w.take();
}

// The encoder the flat Name replaced: one TLV element per owning
// component.
Bytes encode_ref(const ref::Name& name) {
  tlv::Writer w;
  auto nested = w.begin(tlv::kName);
  for (const auto& c : name.components()) {
    w.tlv(tlv::kGenericNameComponent, BytesView(c.value()));
  }
  w.end(nested);
  return w.take();
}

Name decode(const Bytes& wire) {
  tlv::Reader reader{BytesView(wire)};
  auto el = reader.expect(tlv::kName);
  return parse_name(el.value);
}

TEST(NameFlatEquivalence, HashesAndPrefixHashes) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    for (const auto& p : random_pairs(seed)) {
      ASSERT_TRUE(same_components(p.flat, p.ref)) << "seed " << seed;
      EXPECT_EQ(p.flat.hash(), p.ref.hash()) << p.ref.to_uri();
      for (size_t d = 0; d <= p.flat.size() + 1; ++d) {
        EXPECT_EQ(p.flat.prefix_hash(d), p.ref.prefix_hash(d)) << d;
      }
      EXPECT_EQ(std::hash<Name>{}(p.flat), p.ref.hash());
    }
  }
}

TEST(NameFlatEquivalence, EqualityAndOrderingSigns) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    auto pairs = random_pairs(100 + seed);
    for (size_t i = 0; i < pairs.size(); ++i) {
      for (size_t j = 0; j < pairs.size(); ++j) {
        const auto& a = pairs[i];
        const auto& b = pairs[j];
        ASSERT_EQ(a.flat == b.flat, a.ref == b.ref)
            << a.ref.to_uri() << " vs " << b.ref.to_uri();
        ASSERT_EQ(sign(a.flat <=> b.flat), sign(a.ref <=> b.ref))
            << a.ref.to_uri() << " vs " << b.ref.to_uri();
      }
    }
  }
}

TEST(NameFlatEquivalence, MapIterationOrder) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    std::map<Name, int> flat;
    std::map<ref::Name, int> ref;
    int k = 0;
    for (auto& p : random_pairs(200 + seed)) {
      flat.emplace(p.flat, k);
      ref.emplace(p.ref, k);
      ++k;
    }
    ASSERT_EQ(flat.size(), ref.size()) << "seed " << seed;
    auto it = ref.begin();
    for (const auto& [name, v] : flat) {
      EXPECT_TRUE(same_components(name, it->first)) << "seed " << seed;
      EXPECT_EQ(v, it->second);
      ++it;
    }
  }
}

TEST(NameFlatEquivalence, PrefixOperations) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    auto pairs = random_pairs(300 + seed);
    for (size_t i = 0; i < pairs.size(); ++i) {
      const auto& a = pairs[i];
      const auto& b = pairs[(i * 7 + 3) % pairs.size()];
      EXPECT_EQ(a.flat.is_prefix_of(b.flat), a.ref.is_prefix_of(b.ref))
          << a.ref.to_uri() << " vs " << b.ref.to_uri();
      for (size_t d = 0; d <= a.flat.size() + 1; ++d) {
        Name fp = a.flat.prefix(d);
        ref::Name rp = a.ref.prefix(d);
        EXPECT_TRUE(same_components(fp, rp)) << d;
        EXPECT_EQ(fp.has_hash_cache(), rp.has_hash_cache()) << d;
        EXPECT_EQ(fp.hash(), rp.hash()) << d;
        EXPECT_TRUE(fp.is_prefix_of(a.flat));
        EXPECT_TRUE(same_components(a.flat.get_prefix_dropping(d),
                                    a.ref.get_prefix_dropping(d)))
            << d;
      }
    }
  }
}

TEST(NameFlatEquivalence, UriAndTlvRoundTrip) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    for (const auto& p : random_pairs(400 + seed)) {
      EXPECT_EQ(p.flat.to_uri(), p.ref.to_uri());
      const Bytes wire = encode(p.flat);
      EXPECT_EQ(wire, encode_ref(p.ref)) << p.ref.to_uri();
      Name back = decode(wire);
      EXPECT_TRUE(back.has_hash_cache());
      EXPECT_EQ(back, p.flat);
      EXPECT_TRUE(same_components(back, p.ref));
      EXPECT_EQ(back.hash(), p.ref.hash());
    }
  }
}

// ------------------------------------------------------ edge cases

TEST(NameFlatEdge, SpillPastInlineBytesAndComponents) {
  Name n;
  ref::Name r;
  (void)n.hash();  // warm: every append below extends the cache
  const std::string long_comp(Name::kInlineBytes + 5, 'x');
  for (size_t i = 0; i < Name::kInlineComponents + 3; ++i) {
    const std::string c = i == 2 ? long_comp : "c" + std::to_string(i);
    n.append(c);
    r.append(c);
    ASSERT_TRUE(same_components(n, r)) << i;
    ASSERT_TRUE(n.has_hash_cache());
    EXPECT_EQ(n.hash(), r.hash()) << i;
  }
  Name copy = n;  // copy of a spilled name
  EXPECT_EQ(copy, n);
  EXPECT_EQ(copy.hash(), r.hash());
  EXPECT_EQ(n.prefix(2), Name("/c0/c1"));  // prefix back under inline size
  EXPECT_EQ(n.to_uri(), r.to_uri());
}

TEST(NameFlatEdge, EmptyAndBinaryComponents) {
  const Bytes zero_ff = {0x00, 0xff, 0x00};
  Name n;
  ref::Name r;
  for (const Bytes& c : {Bytes{}, zero_ff, Bytes{0xff}, Bytes{}, Bytes{0x00}}) {
    n.append(Component(c));
    r.append(ref::Component(c));
  }
  ASSERT_EQ(n.size(), 5u);
  EXPECT_EQ(n[0].size(), 0u);
  EXPECT_EQ(n[3].size(), 0u);
  EXPECT_TRUE(same_components(n, r));
  EXPECT_EQ(n.hash(), r.hash());
  EXPECT_EQ(decode(encode(n)), n);
  // Empty components still count as boundaries: "/" + "" differs from "/".
  EXPECT_NE(Name().append(Component()), Name());
  EXPECT_NE(Name().append(Component()).hash(), Name().hash());
  // /<00>/<> vs /<>/<00>: same bytes, different boundaries.
  Name a, b;
  a.append(Component(Bytes{0x00})).append(Component());
  b.append(Component()).append(Component(Bytes{0x00}));
  EXPECT_NE(a, b);
  EXPECT_GT(a, b);
  EXPECT_FALSE(a.is_prefix_of(b));
}

TEST(NameFlatEdge, SelfAliasingAppendAcrossSpill) {
  // Each append copies a view into the name's own buffer; the last ones
  // force the byte buffer and the end-offset array onto the heap while
  // the appended view still points at the old inline storage.
  const std::string first(20, 'q');
  Name n{first};
  ref::Name r{first};
  (void)n.hash();
  for (int i = 0; i < 8; ++i) {
    n.append(n[0]);
    r.append(r[0]);
    ASSERT_TRUE(same_components(n, r)) << i;
    ASSERT_EQ(n.hash(), r.hash()) << i;
  }
  // Cold cache too, appending the newest component.
  Name cold{"ab"};
  for (int i = 0; i < 8; ++i) cold.append(cold[cold.size() - 1]);
  EXPECT_EQ(cold.size(), 9u);
  for (size_t i = 0; i < cold.size(); ++i) EXPECT_EQ(cold[i].str(), "ab");
}

TEST(NameFlatEdge, CopyMoveAndSelfAssignment) {
  const std::string big(Name::kInlineBytes * 2, 'z');
  for (const Name& src : {Name("/a/b/c"), Name{"a", big, "c", "d", "e", "f"}}) {
    const std::string uri = src.to_uri();
    Name copy(src);
    EXPECT_EQ(copy, src);
    Name moved(std::move(copy));
    EXPECT_EQ(moved.to_uri(), uri);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy, Name());    // moved-from is a valid empty name
    copy = moved;               // reuse after move
    EXPECT_EQ(copy.to_uri(), uri);

    Name assigned("/x");
    assigned = src;
    EXPECT_EQ(assigned, src);
    Name big_target{big, big};  // spilled target reuses its heap block
    big_target = src;
    EXPECT_EQ(big_target, src);
    EXPECT_EQ(big_target.hash(), src.hash());

    Name self = src;
    const Name& alias = self;
    self = alias;  // self copy-assignment
    EXPECT_EQ(self.to_uri(), uri);
    self = std::move(self);  // NOLINT: self move-assignment stays valid
    EXPECT_EQ(self.to_uri(), uri);

    Name target("/old");
    target = std::move(moved);
    EXPECT_EQ(target.to_uri(), uri);
    EXPECT_EQ(target.hash(), ref::Name(uri).hash());
  }
}

TEST(NameFlatEdge, HashCacheWarmColdTransitions) {
  Name n("/a/b");
  EXPECT_FALSE(n.has_hash_cache());
  n.append("c");  // cold append stays cold
  EXPECT_FALSE(n.has_hash_cache());
  EXPECT_EQ(n.prefix_hash(1), ref::Name("/a").hash());  // fills the cache
  EXPECT_TRUE(n.has_hash_cache());
  n.append("d");  // warm append extends
  EXPECT_TRUE(n.has_hash_cache());
  EXPECT_EQ(n.hash(), ref::Name("/a/b/c/d").hash());
  Name copy = n;  // copies carry the warm cache
  EXPECT_TRUE(copy.has_hash_cache());
  Name moved = std::move(copy);
  EXPECT_TRUE(moved.has_hash_cache());
  EXPECT_EQ(moved.hash(), n.hash());
  // A copy of a cold name is cold and fills independently.
  Name cold("/a/b/c/d");
  Name cold_copy = cold;
  EXPECT_FALSE(cold_copy.has_hash_cache());
  EXPECT_EQ(cold_copy.hash(), n.hash());
  EXPECT_FALSE(cold.has_hash_cache());
  // Warm past the inline hash capacity, then back under it via prefix().
  Name deep;
  (void)deep.hash();
  for (size_t i = 0; i < Name::kInlineComponents + 2; ++i) deep.append("k");
  EXPECT_TRUE(deep.has_hash_cache());
  Name shallow = deep.prefix(2);
  EXPECT_TRUE(shallow.has_hash_cache());
  EXPECT_EQ(shallow.hash(), ref::Name("/k/k").hash());
}

TEST(NameFlatEdge, ComponentViewAccess) {
  Name n("/coll/file/42");
  EXPECT_EQ(n[0].str(), "coll");
  EXPECT_EQ(n.at(1).to_string(), "file");
  EXPECT_EQ(n[2].to_number(), 42u);
  EXPECT_FALSE(n[1].to_number().has_value());
  EXPECT_THROW((void)n.at(3), std::out_of_range);
  EXPECT_EQ(n[1], Component("file"));
  EXPECT_LT(n[0], n[1]);  // "coll" < "file"
  EXPECT_LT(ComponentView(Component("ab")), ComponentView(Component("abc")));
  EXPECT_GT(ComponentView(Component(Bytes{0xff})),
            ComponentView(Component(Bytes{0x00, 0x01})));
  Name number;
  number.append_number(UINT64_MAX);
  EXPECT_EQ(number[0].str(), "18446744073709551615");
  EXPECT_EQ(number[0].to_number(), UINT64_MAX);
}

}  // namespace
}  // namespace dapes::ndn
