/// @file
/// Shared name-tree data plane (NFD's NameTree, sized for DAPES).
///
/// One hash index holds every name the forwarder's tables care about. The
/// index is open addressing: a power-of-two array of inline
/// (hash, Entry*) slots with linear probing and backward-shift deletion,
/// keyed by the Name's cached FNV-1a hash (which encodes the component
/// count via separators, so (depth, hash) collisions across depths are
/// already rare). A probe compares the inline hashes first and touches
/// an entry's Name only on a hash match, so a miss never leaves the slot
/// array. The entries double as a component trie: every entry points at
/// its parent (the one-component-shorter prefix) and lists its children,
/// sorted by last component on demand, so the trie enumerates names in
/// exactly the order a std::map<Name, ...> would. Inserting appends a
/// child and pruning erases it by pointer; only an ordered walk sorts
/// (CanBePrefix scans, enumerate()), so the per-packet insert/prune
/// churn compares no components.
///
/// CS, PIT and FIB state hang off the *same* entry (pointer-sized slots,
/// allocated on demand), which is what makes the data plane cheap:
///
///   * exact match — one probe (Name::hash is cached);
///   * all-prefixes walks (PIT matches_for_data, FIB longest-prefix
///     match) — find the deepest present prefix (find_longest, one probe
///     per depth off Name::prefix_hash, no prefix Name materialized),
///     then climb parent links: every present prefix of a name is an
///     ancestor of its deepest present one;
///   * CS LRU — an intrusive entry-pointer list, no Name copies;
///   * ordered prefix scans (CanBePrefix lookups) — pre-order trie
///     descent, identical visit order to the std::map reference.
///
/// Entries live in per-tree chunked storage with a free list: creating
/// and pruning an entry is no allocator call once the tree has warmed up,
/// and teardown destroys the live entries and frees whole chunks. A freed
/// cell is reused by the next insert, so code that must outlive an entry
/// holds a Handle (cell index + generation) and resolves it, which fails
/// once the entry was pruned — also after its cell went to another name.
///
/// Entries with no payloads and no children are removed eagerly
/// (cleanup()), so the table never outgrows the live table state.
/// src/ndn/tables.hpp builds the public ContentStore/Pit/Fib on top;
/// src/ndn/tables_ref.hpp retains the std::map reference implementation
/// the equivalence suite (tests/test_name_tree.cpp) compares against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "ndn/packet.hpp"
#include "sim/scheduler.hpp"

namespace dapes::ndn {

/// Identifier the Forwarder assigns when a face is added (mirrored from
/// face.hpp so the tables stay header-independent of faces).
using FaceId = uint32_t;
using common::TimePoint;

/// One pending Interest: who asked, which nonces were seen, when it dies.
struct PitEntry {
  Name name;                  ///< the pending Interest's name
  bool can_be_prefix = false; ///< Interest's CanBePrefix selector
  TimePoint expiry{};         ///< when the entry times out
  /// Faces the Interest arrived on (data goes back to these).
  std::vector<FaceId> in_faces;
  /// Set when this node relayed the Interest onto the broadcast medium.
  /// On a broadcast face the upstream (data source) and downstream
  /// (requester) share one face; a relaying node must re-broadcast the
  /// returning Data exactly when it forwarded the Interest itself.
  bool relayed_to_network = false;
  /// Nonces seen for this name — duplicates indicate loops.
  std::unordered_set<uint32_t> nonces;
  sim::EventId expiry_event{};  ///< scheduled timeout event
};

/// The shared hashed name trie all three tables hang their state off
/// (see file comment).
class NameTree {
 public:
  struct Entry;

  /// CS state: shared Data handle, expiry, intrusive LRU links.
  struct CsState {
    DataPtr data;              ///< the cached packet (shared, immutable)
    TimePoint expires{};       ///< freshness deadline
    Entry* lru_prev = nullptr; ///< intrusive LRU list link
    Entry* lru_next = nullptr; ///< intrusive LRU list link
  };

  /// FIB state: the next-hop set for this exact prefix.
  struct FibState {
    std::set<FaceId> faces;  ///< next-hop faces, ordered
  };

  /// One name's node in the shared trie/hash index.
  struct Entry {
    Name name;    ///< full name of this node; hash cache warm
    size_t hash;  ///< == name.hash(), stored for cheap rehash/probe
    Entry* parent = nullptr;       ///< one-component-shorter prefix
    /// Child entries; in last-component order iff children_sorted.
    std::vector<Entry*> children;

    // Table payloads; an entry lives while any slot (or a child) does.
    std::unique_ptr<CsState> cs;    ///< Content Store slot
    std::unique_ptr<PitEntry> pit;  ///< PIT slot
    std::unique_ptr<FibState> fib;  ///< FIB slot
    /// CS entries at-or-below this entry (maintained by the ContentStore
    /// along the ancestor chain). CanBePrefix scans skip CS-free
    /// subtrees, so a shared tree dense in PIT/FIB state costs a prefix
    /// query nothing — it stays proportional to the CS entries in range,
    /// like the std::map reference.
    uint32_t cs_in_subtree : 31 = 0;
    uint32_t children_sorted : 1 = 1;  ///< see children (a bool)
    uint32_t cell = 0;  ///< index of the pool cell holding this entry

    /// The children in last-component order (sorting them if an insert
    /// has disturbed the order since the last ordered walk).
    const std::vector<Entry*>& sorted_children();

    /// Component count of this entry's name.
    size_t depth() const { return name.size(); }
    /// Whether any table slot is occupied.
    bool has_payload() const { return cs || pit || fib; }
  };

  /// A reference to an entry that may outlive it (timers): resolve()
  /// answers nullptr once the entry has been pruned, even after its
  /// storage cell was reused for another name.
  struct Handle {
    uint32_t cell = 0;        ///< pool cell index
    uint32_t generation = 0;  ///< the cell's generation when issued
  };

  /// An empty tree.
  NameTree() = default;
  ~NameTree();
  NameTree(const NameTree&) = delete;             ///< not copyable
  NameTree& operator=(const NameTree&) = delete;  ///< not copyable

  /// Find-or-insert the entry for @p name, creating payload-free ancestor
  /// entries up to the root. One probe when present; O(depth) on insert.
  Entry* lookup(const Name& name);

  /// Insert @p name, known to be absent (the caller's exact probe just
  /// missed), with any missing ancestors — lookup() minus its exact probe.
  Entry* insert(const Name& name);

  /// Insert @p name, known to be absent, below @p parent: the entry of
  /// its longest present prefix as find_longest() returned it (nullptr
  /// on an empty tree). Creates the missing entries without probing.
  Entry* insert_below(Entry* parent, const Name& name);

  /// Exact-match probe; nullptr when absent.
  Entry* find_exact(const Name& name) const;

  /// The entry of the longest prefix of @p name (the name itself
  /// included) that is present, probing depths from @p max_depth down;
  /// nullptr only when the tree is empty. Every other present prefix of
  /// @p name up to @p max_depth is one of its ancestors.
  Entry* find_longest(const Name& name, size_t max_depth) const;
  /// find_longest() over every depth of @p name.
  Entry* find_longest(const Name& name) const {
    return find_longest(name, name.size());
  }

  /// Remove @p entry and then every ancestor left with no payload and no
  /// children. Call after clearing a payload slot; entries still carrying
  /// state are left untouched.
  void cleanup(Entry* entry);

  /// Pre-order, component-ordered walk of the whole trie — the iteration
  /// order of the std::map reference tables.
  void enumerate(const std::function<void(const Entry&)>& fn);

  /// A handle on @p entry for resolve().
  Handle handle_of(const Entry* entry) const {
    return {entry->cell, cell_at(entry->cell).generation};
  }
  /// The entry @p handle was issued for, or nullptr if it has been
  /// removed since.
  Entry* resolve(Handle handle) const {
    if (handle.cell >= cells_used_) return nullptr;
    Cell& c = cell_at(handle.cell);
    return c.generation == handle.generation ? c.entry() : nullptr;
  }

  /// Entry count, including payload-free interior entries.
  size_t size() const { return size_; }

 private:
  /// One index slot; entry == nullptr marks it empty.
  struct Slot {
    size_t hash;
    Entry* entry;
  };
  /// Storage for one pooled entry. The generation survives the entry's
  /// destruction and changes each time the cell is freed; next_free links
  /// the free list, or is kLiveCell while the cell holds an entry. A new
  /// chunk is left uninitialized — cells at or past cells_used_ are never
  /// read — so growing the pool touches no memory before it is used.
  struct Cell {
    alignas(Entry) unsigned char bytes[sizeof(Entry)];
    uint32_t generation;
    uint32_t next_free;
    Entry* entry() { return std::launder(reinterpret_cast<Entry*>(bytes)); }
  };
  static constexpr size_t kChunkCells = 8;
  static constexpr uint32_t kNoCell = UINT32_MAX;
  static constexpr uint32_t kLiveCell = UINT32_MAX - 1;

  /// Home slot of @p hash: Fibonacci hashing, so the index takes the
  /// product's high bits rather than FNV-1a's weaker low bits.
  size_t home_of(size_t hash) const {
    return static_cast<size_t>((uint64_t{hash} * 0x9e3779b97f4a7c15ULL) >>
                               shift_);
  }
  /// The entry whose name equals the first @p depth components of
  /// @p name, or nullptr. @p hash must be name.prefix_hash(depth).
  Entry* probe(size_t hash, const Name& name, size_t depth) const;
  void place(size_t hash, Entry* entry);
  void unplace(const Entry* entry);
  void grow();

  Cell& cell_at(uint32_t i) const {
    return chunks_[i / kChunkCells][i % kChunkCells];
  }
  Entry* new_entry();
  void free_entry(Entry* entry);

  std::vector<Slot> slots_;  // power-of-two size; empty until first use
  unsigned shift_ = 64;      // 64 - log2(slots_.size())
  size_t size_ = 0;
  std::vector<std::unique_ptr<Cell[]>> chunks_;
  uint32_t cells_used_ = 0;        // cells ever handed out
  uint32_t free_head_ = kNoCell;   // freed cells, most recent first
};

}  // namespace dapes::ndn
