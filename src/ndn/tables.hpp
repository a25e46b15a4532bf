/// @file
/// NFD-lite data plane tables: Content Store, Pending Interest Table, and
/// Forwarding Information Base (paper Fig. 1).
///
/// All three are views over one shared NameTree (src/ndn/name_tree.hpp).
/// Each table has two layers of API:
///
///   * entry-level methods take the tree entry of the packet's name. The
///     Forwarder resolves a packet's name against the tree once and hands
///     that entry to every stage (nonce check, CS, PIT, CS insert), so a
///     packet costs one probe, not one per stage;
///   * name-keyed methods (find/insert/erase by Name) are thin wrappers:
///     one probe, then the entry-level method — there is one code path.
///
/// Prefix walks (PIT matches_for_data, FIB longest-prefix match) find the
/// deepest present prefix and climb parent links; the CS LRU is an
/// intrusive list of tree-entry pointers — no Name is copied or compared
/// byte-by-byte on the forwarding path. The PIT's dead-nonce list is a
/// flat FIFO: a fingerprint ring plus an open-addressing set, both grown
/// with occupancy. Semantics are bit-identical to the retained std::map
/// reference implementation (src/ndn/tables_ref.hpp);
/// tests/test_name_tree.cpp proves it on randomized workloads, and
/// tests/test_forwarder.cpp replays the name-keyed pipeline against the
/// entry-level one. Sizes are bounded; the CS evicts LRU, which is what
/// lets pure forwarders serve overheard data (paper §V-A) without
/// unbounded memory.
///
/// Standalone construction (`ContentStore cs;`) gives each table a private
/// tree; a Forwarder passes one shared tree to all three so a name's CS,
/// PIT and FIB state share an entry.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "ndn/name_tree.hpp"
#include "ndn/packet.hpp"
#include "sim/scheduler.hpp"

namespace dapes::ndn {

/// In-network cache of Data packets.
///
/// Entries expire after the packet's FreshnessPeriod (short-lived data
/// such as discovery responses must not be served stale); lookups skip
/// and evict expired entries. Entries are shared DataPtr handles: caching
/// never deep-copies content or wire bytes.
class ContentStore {
 public:
  /// CS holding up to @p capacity entries, on @p tree (a private tree
  /// when null).
  explicit ContentStore(size_t capacity = 4096,
                        std::shared_ptr<NameTree> tree = nullptr)
      : capacity_(capacity),
        tree_(tree ? std::move(tree) : std::make_shared<NameTree>()) {}

  /// Insert (or refresh) a Data packet, stamped with the current time.
  /// A new entry wraps the Data into a shared handle (a cheap,
  /// slice-sharing copy of the packet struct — not of its bytes); a
  /// refresh of an existing name allocates nothing.
  void insert(const Data& data, TimePoint now = TimePoint::zero()) {
    insert(tree_->find_longest(data.name()), data, now);
  }
  /// Insert (or refresh) an already-shared Data handle.
  void insert(DataPtr data, TimePoint now = TimePoint::zero()) {
    if (!data) return;
    NameTree::Entry* longest = tree_->find_longest(data->name());
    insert(longest, std::move(data), now);
  }

  /// Exact-name lookup; @p can_be_prefix widens to "any data under name".
  /// Returns a shared handle (nullptr on miss).
  DataPtr find(const Name& name, bool can_be_prefix = false,
               TimePoint now = TimePoint::zero()) {
    NameTree::Entry* entry = tree_->find_exact(name);
    return find(entry, name, can_be_prefix, now);
  }

  /// insert(const Data&) given @p longest, the tree's deepest present
  /// prefix of the data's name as NameTree::find_longest returns it (the
  /// name's own entry when present; nullptr only on an empty tree). A new
  /// name's entry is built below it without probing the tree again.
  void insert(NameTree::Entry* longest, const Data& data, TimePoint now);
  /// find() given @p entry, the tree entry of @p name (nullptr when
  /// absent). Expired CS state met on the way is erased, which can prune
  /// the entry itself, so @p entry is updated to stay the tree entry of
  /// @p name (or nullptr).
  DataPtr find(NameTree::Entry*& entry, const Name& name, bool can_be_prefix,
               TimePoint now);

  /// Whether an entry with this exact name exists (expired or not).
  bool contains(const Name& name) const {
    NameTree::Entry* e = tree_->find_exact(name);
    return e != nullptr && e->cs != nullptr;
  }
  /// Live entries stored.
  size_t size() const { return size_; }
  /// Entry cap (LRU eviction beyond it).
  size_t capacity() const { return capacity_; }

  /// Approximate memory footprint (content bytes), for Table-I style
  /// system-load reporting.
  size_t content_bytes() const { return content_bytes_; }

 private:
  /// insert(DataPtr) given @p longest, as for the public overload.
  void insert(NameTree::Entry* longest, DataPtr data, TimePoint now);
  /// Bump @p e's expiry + LRU position (@p e holds CS state).
  void refresh(NameTree::Entry* e, TimePoint expires);
  /// Cache @p data, whose name holds no CS state, evicting the LRU entry
  /// when full. @p longest is as for insert().
  void store(NameTree::Entry* longest, DataPtr data, TimePoint now);
  void touch(NameTree::Entry* e);
  void evict_one();
  /// Drop the CS state of @p e (LRU unlink, byte accounting, tree
  /// cleanup).
  void erase(NameTree::Entry* e);
  /// Pre-order descent for CanBePrefix queries: returns the first live
  /// CS entry under @p e in component order (nullptr if none),
  /// collecting expired entries seen on the way into @p expired.
  NameTree::Entry* scan_prefix(NameTree::Entry* e, TimePoint now,
                               std::vector<NameTree::Entry*>& expired);
  void lru_unlink(NameTree::Entry* e);
  void lru_push_back(NameTree::Entry* e);

  size_t capacity_;
  size_t size_ = 0;
  size_t content_bytes_ = 0;
  std::shared_ptr<NameTree> tree_;
  NameTree::Entry* lru_head_ = nullptr;  // least recently used
  NameTree::Entry* lru_tail_ = nullptr;
};

/// Tree entries holding the PIT entries one Data satisfies, exact match
/// first (inline up to 8, deeper than any DAPES name).
using PitMatches = detail::InlineVec<NameTree::Entry*, 8>;

/// Pending Interest Table over the shared NameTree.
class Pit {
 public:
  /// Dead-nonce list capacity: beyond it the oldest fingerprint goes.
  static constexpr size_t kDeadNonceCap = 8192;

  /// PIT on @p tree (a private tree when null).
  explicit Pit(std::shared_ptr<NameTree> tree = nullptr)
      : tree_(tree ? std::move(tree) : std::make_shared<NameTree>()) {}

  /// Find the entry with this exact name.
  PitEntry* find(const Name& name) {
    NameTree::Entry* e = tree_->find_exact(name);
    return (e == nullptr) ? nullptr : e->pit.get();
  }

  /// All entries satisfied by data with @p data_name (exact match, plus
  /// CanBePrefix entries whose name prefixes it, deepest first).
  std::vector<Name> matches_for_data(const Name& data_name) const;

  /// Insert a new entry; returns a stable reference.
  PitEntry& insert(const Name& name) { return insert(tree_->lookup(name)); }

  /// Remove the entry with this exact name (no-op when absent).
  void erase(const Name& name) {
    NameTree::Entry* e = tree_->find_exact(name);
    if (e != nullptr && e->pit != nullptr) erase(e);
  }
  /// Live entries.
  size_t size() const { return size_; }

  /// True if @p nonce was already recorded anywhere for @p name
  /// (loop detection across live entries + dead-nonce history).
  bool has_nonce(const Name& name, uint32_t nonce) const {
    return has_nonce(tree_->find_exact(name), name, nonce);
  }

  /// Record into the dead nonce list (consulted after entries expire).
  void record_dead_nonce(const Name& name, uint32_t nonce) {
    dead_.record(fingerprint(name.hash(), nonce));
  }

  /// matches_for_data() as tree entries, given @p longest =
  /// tree.find_longest(data name) and the data name's @p depth: the
  /// exact entry, then every CanBePrefix ancestor, by parent links.
  void matches(NameTree::Entry* longest, size_t depth, PitMatches& out) const;
  /// insert() given @p entry, the tree entry of the name.
  PitEntry& insert(NameTree::Entry* entry);
  /// Remove @p entry's PIT state (it must have some); prunes the entry
  /// from the tree if nothing else holds it.
  void erase(NameTree::Entry* entry);
  /// has_nonce() given @p entry, the tree entry of @p name (nullptr when
  /// absent).
  bool has_nonce(const NameTree::Entry* entry, const Name& name,
                 uint32_t nonce) const;
  /// record_dead_nonce() for @p entry's name.
  void record_dead_nonce(const NameTree::Entry& entry, uint32_t nonce) {
    dead_.record(fingerprint(entry.hash, nonce));
  }

 private:
  /// Dead-nonce key: the name's cached hash mixed with the nonce.
  static uint64_t fingerprint(size_t name_hash, uint32_t nonce) {
    return name_hash ^ (0x9e3779b97f4a7c15ULL * nonce);
  }

  /// Bounded FIFO set of fingerprints: a ring in arrival order plus an
  /// open-addressing index (linear probing, backward-shift deletion),
  /// both grown with occupancy up to kDeadNonceCap.
  class DeadNonces {
   public:
    bool contains(uint64_t fp) const;
    /// No-op when present; beyond the cap the oldest entry goes.
    void record(uint64_t fp);

   private:
    size_t home(uint64_t fp) const {
      return static_cast<size_t>((fp * 0x9e3779b97f4a7c15ULL) >> shift_);
    }
    void index_insert(uint64_t fp);
    void index_erase(uint64_t fp);

    std::vector<uint64_t> ring_;  // power-of-two size
    size_t head_ = 0;             // oldest fingerprint
    size_t count_ = 0;
    std::vector<uint64_t> index_;  // power-of-two size; 0 = empty slot
    unsigned shift_ = 64;
    bool has_zero_ = false;        // fingerprint 0 lives beside the index
  };

  std::shared_ptr<NameTree> tree_;
  size_t size_ = 0;
  DeadNonces dead_;
};

/// Longest-prefix-match routing table: prefix -> out-faces.
class Fib {
 public:
  /// FIB on @p tree (a private tree when null).
  explicit Fib(std::shared_ptr<NameTree> tree = nullptr)
      : tree_(tree ? std::move(tree) : std::make_shared<NameTree>()) {}

  /// Register @p face as a next hop for @p prefix.
  void add_route(const Name& prefix, FaceId face);
  /// Unregister @p face from @p prefix (erasing empty routes).
  void remove_route(const Name& prefix, FaceId face);

  /// Faces for the longest matching prefix (empty when no route).
  std::vector<FaceId> lookup(const Name& name) const;

  /// All registered prefixes pointing at @p face (used by app discovery).
  std::vector<Name> prefixes_for(FaceId face) const;

  /// Registered prefixes.
  size_t size() const { return size_; }

 private:
  std::shared_ptr<NameTree> tree_;
  size_t size_ = 0;
};

}  // namespace dapes::ndn
