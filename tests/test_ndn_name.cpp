// Unit tests for NDN names.
#include <gtest/gtest.h>

#include <unordered_set>

#include "ndn/name.hpp"

namespace dapes::ndn {
namespace {

TEST(Name, ParseAndPrint) {
  Name n("/damaged-bridge-1533783192/bridge-picture/0");
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0].to_string(), "damaged-bridge-1533783192");
  EXPECT_EQ(n[1].to_string(), "bridge-picture");
  EXPECT_EQ(n[2].to_string(), "0");
  EXPECT_EQ(n.to_uri(), "/damaged-bridge-1533783192/bridge-picture/0");
}

TEST(Name, EmptyForms) {
  EXPECT_TRUE(Name("").empty());
  EXPECT_TRUE(Name("/").empty());
  EXPECT_EQ(Name("").to_uri(), "/");
}

TEST(Name, SkipsEmptyComponents) {
  Name n("//a///b/");
  EXPECT_EQ(n.size(), 2u);
  EXPECT_EQ(n.to_uri(), "/a/b");
}

TEST(Name, InitializerList) {
  Name n{"a", "b", "c"};
  EXPECT_EQ(n.to_uri(), "/a/b/c");
}

TEST(Name, AppendChaining) {
  Name n;
  n.append("coll").append("file").append_number(42);
  EXPECT_EQ(n.to_uri(), "/coll/file/42");
  EXPECT_EQ(n[2].to_number(), 42u);
}

TEST(Name, AppendedDoesNotMutate) {
  Name base("/a");
  Name longer = base.appended("b");
  EXPECT_EQ(base.to_uri(), "/a");
  EXPECT_EQ(longer.to_uri(), "/a/b");
  EXPECT_EQ(base.appended_number(7).to_uri(), "/a/7");
}

TEST(Name, NumberParsing) {
  EXPECT_EQ(Component("123").to_number(), 123u);
  EXPECT_EQ(Component("0").to_number(), 0u);
  EXPECT_FALSE(Component("12a").to_number().has_value());
  EXPECT_FALSE(Component("").to_number().has_value());
  EXPECT_FALSE(Component("picture").to_number().has_value());
}

TEST(Name, PrefixOperations) {
  Name n("/a/b/c/d");
  EXPECT_EQ(n.prefix(2).to_uri(), "/a/b");
  EXPECT_EQ(n.prefix(0).to_uri(), "/");
  EXPECT_EQ(n.prefix(99).to_uri(), "/a/b/c/d");  // clamped
  EXPECT_EQ(n.get_prefix_dropping().to_uri(), "/a/b/c");
  EXPECT_EQ(n.get_prefix_dropping(3).to_uri(), "/a");
  EXPECT_EQ(n.get_prefix_dropping(99).to_uri(), "/");
}

TEST(Name, IsPrefixOf) {
  Name root("/a/b");
  EXPECT_TRUE(root.is_prefix_of(Name("/a/b")));
  EXPECT_TRUE(root.is_prefix_of(Name("/a/b/c")));
  EXPECT_FALSE(root.is_prefix_of(Name("/a")));
  EXPECT_FALSE(root.is_prefix_of(Name("/a/c/b")));
  EXPECT_TRUE(Name("").is_prefix_of(root));
  // "ab" is not a component-wise prefix of "abc".
  EXPECT_FALSE(Name("/ab").is_prefix_of(Name("/abc")));
}

TEST(Name, OrderingIsComponentWise) {
  EXPECT_LT(Name("/a"), Name("/a/b"));
  EXPECT_LT(Name("/a/b"), Name("/b"));
  // Map iteration groups names under their prefix.
  std::vector<Name> names = {Name("/b"), Name("/a/z"), Name("/a"), Name("/a/b")};
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names[0].to_uri(), "/a");
  EXPECT_EQ(names[1].to_uri(), "/a/b");
  EXPECT_EQ(names[2].to_uri(), "/a/z");
  EXPECT_EQ(names[3].to_uri(), "/b");
}

TEST(Name, HashConsistentWithEquality) {
  std::hash<Name> h;
  EXPECT_EQ(h(Name("/a/b/c")), h(Name("/a/b/c")));
  EXPECT_NE(h(Name("/a/b/c")), h(Name("/a/b/d")));
  // Component boundaries matter: /ab/c vs /a/bc.
  EXPECT_NE(h(Name("/ab/c")), h(Name("/a/bc")));
  std::unordered_set<Name> set;
  set.insert(Name("/x"));
  set.insert(Name("/x"));
  EXPECT_EQ(set.size(), 1u);
}

TEST(Name, ComponentComparison) {
  EXPECT_EQ(Component("abc"), Component("abc"));
  EXPECT_NE(Component("abc"), Component("abd"));
  EXPECT_LT(Component("abc"), Component("abd"));
}

// ------------------------------------------------------ hash cache

// Reference FNV-1a matching the documented scheme, computed from scratch.
size_t reference_hash(const Name& name) {
  size_t h = 1469598103934665603ULL;
  auto mix = [&h](uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (size_t i = 0; i < name.size(); ++i) {
    mix(0xff);
    for (uint8_t b : name[i].value()) mix(b);
  }
  return h;
}

TEST(NameHash, MatchesReferenceScheme) {
  for (const char* uri : {"/", "/a", "/a/b/c", "/coll/file/123"}) {
    Name n = Name(uri);
    EXPECT_EQ(n.hash(), reference_hash(n)) << uri;
    EXPECT_EQ(std::hash<Name>{}(n), n.hash());
  }
}

TEST(NameHash, PrefixHashesMatchPrefixNames) {
  Name n("/damaged-bridge/bridge-picture/0/extra");
  for (size_t d = 0; d <= n.size(); ++d) {
    EXPECT_EQ(n.prefix_hash(d), n.prefix(d).hash()) << d;
  }
  // Clamped like prefix().
  EXPECT_EQ(n.prefix_hash(99), n.hash());
}

TEST(NameHash, AppendExtendsWarmCacheCorrectly) {
  Name n("/a/b");
  EXPECT_FALSE(n.has_hash_cache());
  (void)n.hash();  // warm
  ASSERT_TRUE(n.has_hash_cache());
  n.append("c");
  ASSERT_TRUE(n.has_hash_cache());  // extended in place, not dropped
  EXPECT_EQ(n.hash(), Name("/a/b/c").hash());
  n.append_number(7);
  EXPECT_EQ(n.hash(), Name("/a/b/c/7").hash());
  EXPECT_EQ(n.hash(), reference_hash(n));
}

TEST(NameHash, MutationOfColdNameStaysCorrect) {
  // Appending without a warm cache: first hash() after the mutation must
  // see the final components.
  Name n("/a");
  n.append("b");
  EXPECT_EQ(n.hash(), Name("/a/b").hash());
  EXPECT_EQ(n.hash(), reference_hash(n));
}

TEST(NameHash, PrefixInheritsCache) {
  Name n("/x/y/z");
  (void)n.hash();
  Name p = n.prefix(2);
  EXPECT_TRUE(p.has_hash_cache());
  EXPECT_EQ(p.hash(), Name("/x/y").hash());
  // A cold name's prefix is cold but still hashes correctly.
  Name cold("/x/y/z");
  EXPECT_FALSE(cold.prefix(2).has_hash_cache());
  EXPECT_EQ(cold.prefix(2).hash(), p.hash());
}

TEST(NameHash, CacheStateInvisibleToComparison) {
  Name warm("/k/l");
  (void)warm.hash();
  Name cold("/k/l");
  EXPECT_EQ(warm, cold);
  EXPECT_FALSE(warm < cold);
  EXPECT_FALSE(cold < warm);
  EXPECT_EQ(std::hash<Name>{}(warm), std::hash<Name>{}(cold));
}

TEST(NameHash, ComponentBoundariesStillDistinct) {
  EXPECT_NE(Name("/ab/c").hash(), Name("/a/bc").hash());
  EXPECT_NE(Name("/a/b/c").hash(), Name("/a/b/d").hash());
}

}  // namespace
}  // namespace dapes::ndn
