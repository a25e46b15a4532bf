#include "ndn/name_tree.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace dapes::ndn {

namespace {

/// Under AddressSanitizer a free cell's entry bytes are poisoned, so a
/// stale Entry* faults like a use-after-free instead of reading a dead
/// entry (the chunk itself stays allocated).
void poison_cell(void* bytes, size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(bytes, n);
#else
  (void)bytes;
  (void)n;
#endif
}

void unpoison_cell(void* bytes, size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(bytes, n);
#else
  (void)bytes;
  (void)n;
#endif
}

/// True iff @p candidate equals the first @p depth components of @p name.
bool equals_prefix_of(const NameTree::Entry& candidate, const Name& name,
                      size_t depth) {
  return candidate.name.size() == depth && candidate.name.is_prefix_of(name);
}

}  // namespace

const std::vector<NameTree::Entry*>& NameTree::Entry::sorted_children() {
  if (!children_sorted) {
    // Last components are unique among siblings, so the order is total.
    const size_t d = depth();  // children sit at depth d + 1
    std::sort(children.begin(), children.end(),
              [d](const Entry* a, const Entry* b) {
                return a->name[d] < b->name[d];
              });
    children_sorted = 1;
  }
  return children;
}

NameTree::~NameTree() {
  // Destroy the live entries in storage order; the chunks then free
  // with chunks_, one deallocation per kChunkCells entries.
  for (uint32_t i = 0; i < cells_used_; ++i) {
    Cell& c = cell_at(i);
    if (c.next_free == kLiveCell) {
      std::destroy_at(c.entry());
    } else {
      unpoison_cell(c.bytes, sizeof c.bytes);
    }
  }
}

NameTree::Entry* NameTree::new_entry() {
  uint32_t i = free_head_;
  if (i != kNoCell) {
    free_head_ = cell_at(i).next_free;
  } else {
    if (cells_used_ == chunks_.size() * kChunkCells) {
      chunks_.emplace_back(new Cell[kChunkCells]);
    }
    i = cells_used_++;
    cell_at(i).generation = 0;
  }
  Cell& c = cell_at(i);
  unpoison_cell(c.bytes, sizeof c.bytes);
  Entry* e = std::construct_at(reinterpret_cast<Entry*>(c.bytes));
  e->cell = i;
  c.next_free = kLiveCell;
  return e;
}

void NameTree::free_entry(Entry* entry) {
  const uint32_t i = entry->cell;
  std::destroy_at(entry);
  Cell& c = cell_at(i);
  poison_cell(c.bytes, sizeof c.bytes);
  ++c.generation;  // outstanding handles now resolve to nullptr
  c.next_free = free_head_;
  free_head_ = i;
}

NameTree::Entry* NameTree::probe(size_t hash, const Name& name,
                                 size_t depth) const {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  for (size_t i = home_of(hash);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.entry == nullptr) return nullptr;
    if (s.hash == hash && equals_prefix_of(*s.entry, name, depth)) {
      return s.entry;
    }
  }
}

NameTree::Entry* NameTree::find_exact(const Name& name) const {
  return probe(name.hash(), name, name.size());
}

NameTree::Entry* NameTree::find_longest(const Name& name,
                                        size_t max_depth) const {
  if (size_ == 0) return nullptr;
  if (max_depth > name.size()) max_depth = name.size();
  // The root (depth 0) is present in any non-empty tree, so this ends.
  for (size_t d = max_depth;; --d) {
    if (Entry* e = probe(name.prefix_hash(d), name, d)) return e;
  }
}

void NameTree::place(size_t hash, Entry* entry) {
  const size_t mask = slots_.size() - 1;
  size_t i = home_of(hash);
  while (slots_[i].entry != nullptr) i = (i + 1) & mask;
  slots_[i] = {hash, entry};
}

void NameTree::unplace(const Entry* entry) {
  const size_t mask = slots_.size() - 1;
  size_t hole = home_of(entry->hash);
  while (slots_[hole].entry != entry) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later member of the probe run
  // whose home is not cyclically in (hole, j] back into the hole, so
  // every run stays gap-free and no tombstones are needed.
  for (size_t j = (hole + 1) & mask; slots_[j].entry != nullptr;
       j = (j + 1) & mask) {
    const size_t home = home_of(slots_[j].hash);
    const bool stays = (hole < j) ? (hole < home && home <= j)
                                  : (hole < home || home <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = {0, nullptr};
}

void NameTree::grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t cap = old.empty() ? 64 : old.size() * 2;
  slots_.assign(cap, Slot{0, nullptr});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
  for (const Slot& s : old) {
    if (s.entry != nullptr) place(s.hash, s.entry);
  }
}

NameTree::Entry* NameTree::lookup(const Name& name) {
  Entry* longest = find_longest(name);
  if (longest != nullptr && longest->depth() == name.size()) return longest;
  return insert_below(longest, name);
}

NameTree::Entry* NameTree::insert(const Name& name) {
  // The name itself is known absent: start one component up.
  Entry* parent = name.empty() ? nullptr : find_longest(name, name.size() - 1);
  return insert_below(parent, name);
}

NameTree::Entry* NameTree::insert_below(Entry* parent, const Name& name) {
  // Create the chain below the deepest existing ancestor. Every prefix
  // hash comes from name's single cached pass.
  Entry* e = parent;
  const size_t have = parent == nullptr ? 0 : parent->depth() + 1;
  for (size_t d = have; d <= name.size(); ++d) {
    // Load factor <= 3/4 keeps linear-probe runs short.
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    Entry* child = new_entry();
    child->name = name.prefix(d);  // inherits the hash-cache slice
    child->hash = name.prefix_hash(d);
    child->parent = e;
    if (e != nullptr) {
      // Appending keeps the order only for a first child; ordered walks
      // sort on demand.
      e->children.push_back(child);
      if (e->children.size() > 1) e->children_sorted = 0;
    }
    place(child->hash, child);
    ++size_;
    e = child;
  }
  return e;
}

void NameTree::cleanup(Entry* entry) {
  while (entry != nullptr && !entry->has_payload() && entry->children.empty()) {
    Entry* parent = entry->parent;
    unplace(entry);
    if (parent != nullptr) {
      // An order-preserving erase by pointer: no name is read.
      auto& siblings = parent->children;
      siblings.erase(std::find(siblings.begin(), siblings.end(), entry));
    }
    free_entry(entry);
    --size_;
    entry = parent;
  }
}

void NameTree::enumerate(const std::function<void(const Entry&)>& fn) {
  // The root (empty name) exists iff the tree is non-empty: every entry
  // chains up to it through lookup()'s ancestor creation.
  Entry* root = probe(Name().hash(), Name(), 0);
  if (root == nullptr) return;
  // Pre-order with sorted children == component-lexicographic name order.
  std::function<void(Entry&)> walk = [&](Entry& e) {
    fn(e);
    for (Entry* child : e.sorted_children()) walk(*child);
  };
  walk(*root);
}

}  // namespace dapes::ndn
