// Property tests: the hashed NameTree tables are observably *identical*
// to the retained std::map reference implementation.
//
// Each case drives two full table sets — ContentStore/Pit/Fib sharing one
// NameTree, and ref::ContentStore/ref::Pit/ref::Fib — with the same
// randomized operation stream over a name pool dense in prefix relations
// (small alphabet, depths 0..4). Every observable is compared after every
// operation: find results (by name and content), CanBePrefix winners,
// matches_for_data vectors (order included), LPM face sets, prefixes_for
// enumerations (order included), LRU eviction state, freshness expiry,
// sizes and content-byte accounting, nonce/dead-nonce answers. Any
// divergence in probe logic, trie ordering, or eviction policy shows up
// as a mismatch at the first operation that exposes it.
//
// Direct NameTree structural tests (entry sharing, cleanup) and the Name
// hash-cache tests live at the bottom / in test_ndn_name.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ndn/name_tree.hpp"
#include "ndn/tables.hpp"
#include "ndn/tables_ref.hpp"

namespace dapes::ndn {
namespace {

using common::bytes_of;
using common::Duration;

Data make_data(const Name& name, const std::string& content,
               Duration freshness) {
  Data d{name};
  d.set_content(bytes_of(content));
  d.set_freshness(freshness);
  return d;
}

/// Names dense in prefix relations: depth 0..4 over a 4-symbol alphabet.
Name random_name(common::Rng& rng) {
  static const char* kComps[] = {"a", "b", "coll", "file"};
  Name n;
  const size_t depth = rng.next_below(5);
  for (size_t i = 0; i < depth; ++i) {
    if (rng.chance(0.3)) {
      n.append_number(rng.next_below(4));
    } else {
      n.append(kComps[rng.next_below(4)]);
    }
  }
  return n;
}

std::vector<std::string> uris(const std::vector<Name>& names) {
  std::vector<std::string> out;
  for (const auto& n : names) out.push_back(n.to_uri());
  return out;
}

class TableEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TableEquivalence, NameTreeMatchesMapReference) {
  common::Rng rng(GetParam());
  const size_t cs_capacity = 2 + rng.next_below(48);

  auto tree = std::make_shared<NameTree>();
  ContentStore cs(cs_capacity, tree);
  Pit pit(tree);
  Fib fib(tree);
  ref::ContentStore rcs(cs_capacity);
  ref::Pit rpit;
  ref::Fib rfib;

  // Names seen so far — used for the end-of-run whole-state sweep.
  std::vector<Name> pool;

  TimePoint now{0};
  for (int op = 0; op < 4000; ++op) {
    SCOPED_TRACE(op);
    now = now + Duration::microseconds(
                    static_cast<int64_t>(rng.next_below(200'000)));
    Name name = random_name(rng);
    pool.push_back(name);

    switch (rng.next_below(12)) {
      case 0: {  // CS insert (short or long freshness; shared handle path)
        Duration fresh = rng.chance(0.3) ? Duration::milliseconds(300)
                                         : Duration::seconds(3600.0);
        std::string content(1 + rng.next_below(16), 'x');
        Data d = make_data(name, content, fresh);
        if (rng.chance(0.5)) {
          cs.insert(d, now);
          rcs.insert(d, now);
        } else {
          cs.insert(std::make_shared<const Data>(d), now);
          rcs.insert(std::make_shared<const Data>(d), now);
        }
        break;
      }
      case 1: {  // CS exact find
        DataPtr a = cs.find(name, false, now);
        DataPtr b = rcs.find(name, false, now);
        ASSERT_EQ(a != nullptr, b != nullptr);
        if (a) {
          ASSERT_EQ(*a, *b);
        }
        break;
      }
      case 2: {  // CS CanBePrefix find (also exercises expiry eviction)
        DataPtr a = cs.find(name, true, now);
        DataPtr b = rcs.find(name, true, now);
        ASSERT_EQ(a != nullptr, b != nullptr);
        if (a) {
          ASSERT_EQ(a->name().to_uri(), b->name().to_uri());
          ASSERT_EQ(*a, *b);
        }
        break;
      }
      case 3: {  // CS contains (expired entries still count)
        ASSERT_EQ(cs.contains(name), rcs.contains(name));
        break;
      }
      case 4: {  // PIT insert with random flags + nonces
        PitEntry& a = pit.insert(name);
        PitEntry& b = rpit.insert(name);
        if (rng.chance(0.4)) {
          a.can_be_prefix = b.can_be_prefix = true;
        }
        uint32_t nonce = static_cast<uint32_t>(rng.next());
        a.nonces.insert(nonce);
        b.nonces.insert(nonce);
        FaceId face = static_cast<FaceId>(1 + rng.next_below(4));
        a.in_faces.push_back(face);
        b.in_faces.push_back(face);
        break;
      }
      case 5: {  // PIT find
        PitEntry* a = pit.find(name);
        PitEntry* b = rpit.find(name);
        ASSERT_EQ(a != nullptr, b != nullptr);
        if (a) {
          ASSERT_EQ(a->name.to_uri(), b->name.to_uri());
          ASSERT_EQ(a->can_be_prefix, b->can_be_prefix);
          ASSERT_EQ(a->nonces, b->nonces);
          ASSERT_EQ(a->in_faces, b->in_faces);
        }
        break;
      }
      case 6: {  // PIT matches_for_data — order matters
        ASSERT_EQ(uris(pit.matches_for_data(name)),
                  uris(rpit.matches_for_data(name)));
        break;
      }
      case 7: {  // PIT erase
        pit.erase(name);
        rpit.erase(name);
        break;
      }
      case 8: {  // nonce bookkeeping incl. dead-nonce FIFO
        uint32_t nonce = static_cast<uint32_t>(rng.next_below(64));
        ASSERT_EQ(pit.has_nonce(name, nonce), rpit.has_nonce(name, nonce));
        if (rng.chance(0.5)) {
          pit.record_dead_nonce(name, nonce);
          rpit.record_dead_nonce(name, nonce);
          ASSERT_TRUE(pit.has_nonce(name, nonce));
        }
        break;
      }
      case 9: {  // FIB add/remove
        FaceId face = static_cast<FaceId>(1 + rng.next_below(4));
        if (rng.chance(0.7)) {
          fib.add_route(name, face);
          rfib.add_route(name, face);
        } else {
          fib.remove_route(name, face);
          rfib.remove_route(name, face);
        }
        break;
      }
      case 10: {  // FIB longest-prefix match
        ASSERT_EQ(fib.lookup(name), rfib.lookup(name));
        break;
      }
      default: {  // FIB reverse index — enumeration order matters
        FaceId face = static_cast<FaceId>(1 + rng.next_below(4));
        ASSERT_EQ(uris(fib.prefixes_for(face)), uris(rfib.prefixes_for(face)));
        break;
      }
    }

    ASSERT_EQ(cs.size(), rcs.size());
    ASSERT_EQ(cs.content_bytes(), rcs.content_bytes());
    ASSERT_EQ(pit.size(), rpit.size());
    ASSERT_EQ(fib.size(), rfib.size());
  }

  // Whole-state sweep: every name ever touched answers identically, which
  // pins down LRU eviction victims and freshness expiry history.
  for (const Name& name : pool) {
    SCOPED_TRACE(name.to_uri());
    ASSERT_EQ(cs.contains(name), rcs.contains(name));
    DataPtr a = cs.find(name, false, now);
    DataPtr b = rcs.find(name, false, now);
    ASSERT_EQ(a != nullptr, b != nullptr);
    PitEntry* pa = pit.find(name);
    PitEntry* pb = rpit.find(name);
    ASSERT_EQ(pa != nullptr, pb != nullptr);
    ASSERT_EQ(fib.lookup(name), rfib.lookup(name));
    ASSERT_EQ(uris(pit.matches_for_data(name)),
              uris(rpit.matches_for_data(name)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

// ------------------------------------------------ dead-nonce FIFO at cap

TEST(DeadNonceList, FifoEvictionMatchesReferenceBeyondCap) {
  // The equivalence stream above never fills the dead-nonce list (its
  // nonces are < 64). This one records ~3x kDeadNonceCap fingerprints,
  // re-records some (a repeat of a live fingerprint must not move it in
  // the FIFO; a repeat of an evicted one re-enters at the back), and
  // interleaves has_nonce probes at the eviction boundary: the records
  // made kDeadNonceCap - 1, kDeadNonceCap and kDeadNonceCap + 1 records
  // ago, plus random older and newer ones.
  constexpr size_t kCap = Pit::kDeadNonceCap;
  static_assert(kCap == 8192);
  common::Rng rng(0xdead);
  Pit pit;
  ref::Pit rpit;
  const std::vector<Name> names = {Name(), Name("/a"), Name("/a/b"),
                                   Name("/coll/file/7")};
  struct Record {
    size_t name;
    uint32_t nonce;
  };
  std::vector<Record> history;
  uint32_t next_nonce = 0;
  size_t answered_true = 0;
  size_t answered_false = 0;
  auto check = [&](const Record& r) {
    const bool got = pit.has_nonce(names[r.name], r.nonce);
    ASSERT_EQ(got, rpit.has_nonce(names[r.name], r.nonce));
    ++(got ? answered_true : answered_false);
  };

  for (size_t op = 0; op < 3 * kCap; ++op) {
    SCOPED_TRACE(op);
    Record r{rng.next_below(names.size()), next_nonce};
    if (!history.empty() && rng.chance(0.1)) {
      r = history[rng.next_below(history.size())];  // repeat
    } else {
      ++next_nonce;
    }
    pit.record_dead_nonce(names[r.name], r.nonce);
    rpit.record_dead_nonce(names[r.name], r.nonce);
    history.push_back(r);
    ASSERT_TRUE(pit.has_nonce(names[r.name], r.nonce));

    const size_t n = history.size();
    for (size_t back : {kCap - 1, kCap, kCap + 1}) {
      if (n > back) check(history[n - 1 - back]);
    }
    check(history[rng.next_below(n)]);
    // Never-recorded nonces answer false in both.
    check(Record{rng.next_below(names.size()), next_nonce + 1});
  }
  // Both sides of the boundary were exercised.
  EXPECT_GT(answered_true, kCap);
  EXPECT_GT(answered_false, kCap);

  // Deterministic edge: kCap fresh records push out exactly the older
  // state, oldest first.
  Pit fresh;
  for (uint32_t i = 0; i <= kCap; ++i) fresh.record_dead_nonce(names[1], i);
  EXPECT_FALSE(fresh.has_nonce(names[1], 0));
  EXPECT_TRUE(fresh.has_nonce(names[1], 1));
  EXPECT_TRUE(fresh.has_nonce(names[1], static_cast<uint32_t>(kCap)));
  fresh.record_dead_nonce(names[1], 1);  // live repeat: no reordering
  fresh.record_dead_nonce(names[1], static_cast<uint32_t>(kCap + 1));
  EXPECT_FALSE(fresh.has_nonce(names[1], 1));
  EXPECT_TRUE(fresh.has_nonce(names[1], 2));
}

// ------------------------------------------------- NameTree structurals

TEST(NameTree, SharedEntryAcrossTables) {
  auto tree = std::make_shared<NameTree>();
  ContentStore cs(16, tree);
  Pit pit(tree);
  Fib fib(tree);

  Name name("/coll/file/3");
  Data d{name};
  d.set_content(bytes_of("payload"));
  d.set_freshness(Duration::seconds(10.0));
  cs.insert(d, TimePoint{0});
  pit.insert(name);
  fib.add_route(name, 2);

  // One entry carries all three payloads (plus its ancestor chain:
  // root, /coll, /coll/file).
  NameTree::Entry* e = tree->find_exact(name);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->cs && e->pit && e->fib);
  EXPECT_EQ(tree->size(), 4u);
}

TEST(NameTree, CleanupPrunesEmptyAncestors) {
  auto tree = std::make_shared<NameTree>();
  Pit pit(tree);
  pit.insert(Name("/a/b/c/d"));
  EXPECT_EQ(tree->size(), 5u);  // root + 4 components
  pit.erase(Name("/a/b/c/d"));
  EXPECT_EQ(tree->size(), 0u);

  // Ancestors carrying payloads or siblings survive.
  pit.insert(Name("/a/b"));
  pit.insert(Name("/a/b/c"));
  pit.erase(Name("/a/b/c"));
  EXPECT_EQ(tree->size(), 3u);  // root, /a, /a/b
  EXPECT_NE(pit.find(Name("/a/b")), nullptr);
}

TEST(NameTree, PrefixProbesUseCachedHashes) {
  NameTree tree;
  Name deep("/x/y/z");
  tree.lookup(deep);
  // find_longest never materializes a prefix Name; cap it at every depth.
  for (size_t d = 0; d <= deep.size(); ++d) {
    NameTree::Entry* e = tree.find_longest(deep, d);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->name.to_uri(), deep.prefix(d).to_uri());
    EXPECT_EQ(e->hash, deep.prefix_hash(d));
  }
  // An absent name resolves to its deepest present prefix.
  EXPECT_EQ(tree.find_exact(Name("/x/q")), nullptr);
  EXPECT_EQ(tree.find_longest(Name("/x/q"))->name.to_uri(), "/x");
  EXPECT_EQ(NameTree().find_longest(deep), nullptr);
}

TEST(NameTree, HandlesFailOncePrunedAlsoAfterCellReuse) {
  auto tree = std::make_shared<NameTree>();
  Pit pit(tree);
  pit.insert(Name("/a"));
  NameTree::Entry* a = tree->find_exact(Name("/a"));
  const NameTree::Handle ha = tree->handle_of(a);
  EXPECT_EQ(tree->resolve(ha), a);

  pit.erase(Name("/a"));  // prunes /a and the root
  EXPECT_EQ(tree->resolve(ha), nullptr);

  // The freed cells are reused: /b's entry lands where /a's was, and the
  // stale handle still fails while /b's own handle resolves.
  pit.insert(Name("/b"));
  NameTree::Entry* b = tree->find_exact(Name("/b"));
  EXPECT_EQ(b, a);
  EXPECT_EQ(tree->resolve(ha), nullptr);
  EXPECT_EQ(tree->resolve(tree->handle_of(b)), b);
}

TEST(NameTree, StableSizeUnderChurn) {
  // Rehash + cleanup churn: grow well past the initial bucket count,
  // then drain completely.
  auto tree = std::make_shared<NameTree>();
  Pit pit(tree);
  for (uint64_t i = 0; i < 500; ++i) {
    pit.insert(Name("/churn").appended_number(i));
  }
  EXPECT_EQ(pit.size(), 500u);
  EXPECT_EQ(tree->size(), 502u);  // root + /churn + 500 leaves
  for (uint64_t i = 0; i < 500; ++i) {
    pit.erase(Name("/churn").appended_number(i));
  }
  EXPECT_EQ(pit.size(), 0u);
  EXPECT_EQ(tree->size(), 0u);
}

}  // namespace
}  // namespace dapes::ndn
