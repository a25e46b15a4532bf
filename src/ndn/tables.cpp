#include "ndn/tables.hpp"

#include <bit>

#include "trace/trace.hpp"

namespace dapes::ndn {

// ------------------------------------------------------------ ContentStore

void ContentStore::lru_push_back(NameTree::Entry* e) {
  NameTree::CsState* cs = e->cs.get();
  cs->lru_prev = lru_tail_;
  cs->lru_next = nullptr;
  if (lru_tail_ != nullptr) {
    lru_tail_->cs->lru_next = e;
  } else {
    lru_head_ = e;
  }
  lru_tail_ = e;
}

void ContentStore::lru_unlink(NameTree::Entry* e) {
  NameTree::CsState* cs = e->cs.get();
  if (cs->lru_prev != nullptr) {
    cs->lru_prev->cs->lru_next = cs->lru_next;
  } else {
    lru_head_ = cs->lru_next;
  }
  if (cs->lru_next != nullptr) {
    cs->lru_next->cs->lru_prev = cs->lru_prev;
  } else {
    lru_tail_ = cs->lru_prev;
  }
  cs->lru_prev = cs->lru_next = nullptr;
}

void ContentStore::touch(NameTree::Entry* e) {
  lru_unlink(e);
  lru_push_back(e);
}

void ContentStore::erase(NameTree::Entry* e) {
  content_bytes_ -= e->cs->data->content().size();
  lru_unlink(e);
  e->cs.reset();
  --size_;
  for (NameTree::Entry* a = e; a != nullptr; a = a->parent) --a->cs_in_subtree;
  tree_->cleanup(e);
}

void ContentStore::refresh(NameTree::Entry* e, TimePoint expires) {
  e->cs->expires = expires;
  touch(e);
}

namespace {

/// @p longest when it is @p name's own entry, else nullptr.
NameTree::Entry* exact_of(NameTree::Entry* longest, const Name& name) {
  return longest != nullptr && longest->depth() == name.size() ? longest
                                                               : nullptr;
}

}  // namespace

void ContentStore::insert(NameTree::Entry* longest, const Data& data,
                          TimePoint now) {
  // A refresh of an existing name allocates nothing (and, unlike the
  // shared-handle overload, records no trace event).
  NameTree::Entry* entry = exact_of(longest, data.name());
  if (entry != nullptr && entry->cs != nullptr) {
    refresh(entry, now + data.freshness());
    return;
  }
  store(longest, std::make_shared<const Data>(data), now);
}

void ContentStore::insert(NameTree::Entry* longest, DataPtr data,
                          TimePoint now) {
  if (!data) return;
  NameTree::Entry* entry = exact_of(longest, data->name());
  if (entry != nullptr && entry->cs != nullptr) {
    refresh(entry, now + data->freshness());
    DAPES_TRACE_NAMED(trace::EventType::kCsInsert, data->name(),
                      static_cast<uint64_t>(data->content().size()),
                      /*refreshed=*/1);
    return;
  }
  store(longest, std::move(data), now);
}

void ContentStore::store(NameTree::Entry* longest, DataPtr data,
                         TimePoint now) {
  const Name& name = data->name();
  const uint64_t content_bytes = data->content().size();
  if (size_ >= capacity_) {
    // Eviction can prune longest (a payload-free ancestor of the
    // victim); then the name's deepest present prefix is found afresh.
    if (longest != nullptr) {
      const NameTree::Handle held = tree_->handle_of(longest);
      evict_one();
      longest = tree_->resolve(held);
      if (longest == nullptr) longest = tree_->find_longest(name);
    } else {
      evict_one();
    }
  }
  TimePoint expires = now + data->freshness();
  NameTree::Entry* e = exact_of(longest, name);
  if (e == nullptr) e = tree_->insert_below(longest, name);
  DAPES_TRACE_NAMED(trace::EventType::kCsInsert, name, content_bytes,
                    /*refreshed=*/0);
  e->cs = std::make_unique<NameTree::CsState>();
  content_bytes_ += content_bytes;
  e->cs->data = std::move(data);
  e->cs->expires = expires;
  for (NameTree::Entry* a = e; a != nullptr; a = a->parent) ++a->cs_in_subtree;
  lru_push_back(e);
  ++size_;
}

DataPtr ContentStore::find(NameTree::Entry*& entry, const Name& name,
                           bool can_be_prefix, TimePoint now) {
  if (!can_be_prefix) {
    NameTree::Entry* e = entry;
    if (e == nullptr || e->cs == nullptr) {
      DAPES_TRACE_NAMED(trace::EventType::kCsMiss, name);
      return nullptr;
    }
    if (e->cs->expires <= now) {
      DAPES_TRACE_NAMED(trace::EventType::kCsExpire, name);
      const NameTree::Handle held = tree_->handle_of(e);
      erase(e);
      entry = tree_->resolve(held);  // nullptr if the erase pruned it
      DAPES_TRACE_NAMED(trace::EventType::kCsMiss, name);
      return nullptr;
    }
    touch(e);
    DAPES_TRACE_NAMED(trace::EventType::kCsHit, name);
    return e->cs->data;
  }

  // Prefix query: first non-expired entry at or under `name` in component
  // order. Pre-order descent over sorted children visits candidates in
  // exactly the std::map reference's iteration order; expired entries
  // seen before the hit are evicted, as the reference does while
  // scanning. (Eviction is deferred until the scan ends so tree cleanup
  // cannot disturb the traversal — the same entries end up erased.)
  NameTree::Entry* base = entry;
  if (base == nullptr || base->cs_in_subtree == 0) {
    DAPES_TRACE_NAMED(trace::EventType::kCsMiss, name);
    return nullptr;
  }
  std::vector<NameTree::Entry*> expired;
  NameTree::Entry* hit = scan_prefix(base, now, expired);
  if (!expired.empty()) {
    // Erasing a subtree's last CS state can prune base too; the hit
    // holds CS state, so it survives.
    const NameTree::Handle held = tree_->handle_of(base);
    for (NameTree::Entry* e : expired) {
      DAPES_TRACE_NAMED(trace::EventType::kCsExpire, e->cs->data->name());
      erase(e);
    }
    entry = tree_->resolve(held);
  }
  if (hit == nullptr) {
    DAPES_TRACE_NAMED(trace::EventType::kCsMiss, name);
    return nullptr;
  }
  touch(hit);
  DAPES_TRACE_NAMED(trace::EventType::kCsHit, hit->cs->data->name());
  return hit->cs->data;
}

NameTree::Entry* ContentStore::scan_prefix(
    NameTree::Entry* e, TimePoint now,
    std::vector<NameTree::Entry*>& expired) {
  if (e->cs != nullptr) {
    if (e->cs->expires > now) return e;
    expired.push_back(e);
  }
  for (NameTree::Entry* child : e->sorted_children()) {
    // Skipping CS-free subtrees (PIT/FIB-only state) does not change
    // which CS entries are visited or their order.
    if (child->cs_in_subtree == 0) continue;
    if (NameTree::Entry* hit = scan_prefix(child, now, expired)) return hit;
  }
  return nullptr;
}

void ContentStore::evict_one() {
  if (lru_head_ == nullptr) return;
  DAPES_TRACE_NAMED(trace::EventType::kCsEvict,
                    lru_head_->cs->data->name());
  erase(lru_head_);
}

// -------------------------------------------------------------------- Pit

std::vector<Name> Pit::matches_for_data(const Name& data_name) const {
  PitMatches found;
  matches(tree_->find_longest(data_name), data_name.size(), found);
  std::vector<Name> out;
  out.reserve(found.size());
  for (size_t i = 0; i < found.size(); ++i) out.push_back(found[i]->name);
  return out;
}

void Pit::matches(NameTree::Entry* longest, size_t depth,
                  PitMatches& out) const {
  // Every present prefix of the data name is an ancestor of the deepest
  // one, so the parent chain visits exactly the entries the reference
  // probes, deepest first: the exact match (any flags), then CanBePrefix
  // entries on proper prefixes.
  NameTree::Entry* e = longest;
  if (e != nullptr && e->depth() == depth) {
    if (e->pit != nullptr) out.push_back(e);
    e = e->parent;
  }
  for (; e != nullptr; e = e->parent) {
    if (e->pit != nullptr && e->pit->can_be_prefix) out.push_back(e);
  }
}

PitEntry& Pit::insert(NameTree::Entry* entry) {
  if (entry->pit == nullptr) {
    entry->pit = std::make_unique<PitEntry>();
    entry->pit->name = entry->name;
    ++size_;
    DAPES_TRACE_NAMED(trace::EventType::kPitInsert, entry->name);
  }
  return *entry->pit;
}

void Pit::erase(NameTree::Entry* entry) {
  entry->pit.reset();
  --size_;
  tree_->cleanup(entry);
}

bool Pit::has_nonce(const NameTree::Entry* entry, const Name& name,
                    uint32_t nonce) const {
  if (entry != nullptr && entry->pit != nullptr &&
      entry->pit->nonces.contains(nonce)) {
    return true;
  }
  // name.hash() is cached — the dead-nonce check costs no re-hash.
  return dead_.contains(fingerprint(name.hash(), nonce));
}

bool Pit::DeadNonces::contains(uint64_t fp) const {
  if (fp == 0) return has_zero_;
  if (index_.empty()) return false;
  const size_t mask = index_.size() - 1;
  for (size_t i = home(fp); index_[i] != 0; i = (i + 1) & mask) {
    if (index_[i] == fp) return true;
  }
  return false;
}

void Pit::DeadNonces::record(uint64_t fp) {
  if (contains(fp)) return;
  if (count_ == kDeadNonceCap) {
    // Full: the oldest fingerprint makes room (the reference appends,
    // then drops the front — the same resulting set and order).
    const uint64_t oldest = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    if (oldest == 0) {
      has_zero_ = false;
    } else {
      index_erase(oldest);
    }
  } else if (count_ == ring_.size()) {
    // Grow the ring, unrolling it so the oldest entry lands at 0.
    std::vector<uint64_t> grown(ring_.empty() ? 16 : ring_.size() * 2);
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[(head_ + count_) & (ring_.size() - 1)] = fp;
  ++count_;
  if (fp == 0) {
    has_zero_ = true;
    return;
  }
  // Load factor <= 1/2: at the cap the index holds 2 * kDeadNonceCap
  // slots.
  if (count_ * 2 > index_.size()) {
    std::vector<uint64_t> old = std::move(index_);
    index_.assign(old.empty() ? 32 : old.size() * 2, 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
    for (uint64_t v : old) {
      if (v != 0) index_insert(v);
    }
  }
  index_insert(fp);
}

void Pit::DeadNonces::index_insert(uint64_t fp) {
  const size_t mask = index_.size() - 1;
  size_t i = home(fp);
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = fp;
}

void Pit::DeadNonces::index_erase(uint64_t fp) {
  const size_t mask = index_.size() - 1;
  size_t hole = home(fp);
  while (index_[hole] != fp) hole = (hole + 1) & mask;
  // Backward-shift deletion, as in NameTree::unplace.
  for (size_t j = (hole + 1) & mask; index_[j] != 0; j = (j + 1) & mask) {
    const size_t h = home(index_[j]);
    const bool stays = (hole < j) ? (hole < h && h <= j)
                                  : (hole < h || h <= j);
    if (stays) continue;
    index_[hole] = index_[j];
    hole = j;
  }
  index_[hole] = 0;
}

// -------------------------------------------------------------------- Fib

void Fib::add_route(const Name& prefix, FaceId face) {
  NameTree::Entry* e = tree_->lookup(prefix);
  if (e->fib == nullptr) {
    e->fib = std::make_unique<NameTree::FibState>();
    ++size_;
  }
  e->fib->faces.insert(face);
  DAPES_TRACE_NAMED(trace::EventType::kFibAdd, prefix,
                    static_cast<uint64_t>(face));
}

void Fib::remove_route(const Name& prefix, FaceId face) {
  NameTree::Entry* e = tree_->find_exact(prefix);
  if (e == nullptr || e->fib == nullptr) return;
  e->fib->faces.erase(face);
  DAPES_TRACE_NAMED(trace::EventType::kFibRemove, prefix,
                    static_cast<uint64_t>(face));
  if (e->fib->faces.empty()) {
    e->fib.reset();
    --size_;
    tree_->cleanup(e);
  }
}

std::vector<FaceId> Fib::lookup(const Name& name) const {
  // Longest prefix match: from the deepest present prefix up the parent
  // links — every present prefix of the name is on that chain.
  for (NameTree::Entry* e = tree_->find_longest(name); e != nullptr;
       e = e->parent) {
    if (e->fib != nullptr && !e->fib->faces.empty()) {
      DAPES_TRACE_NAMED(trace::EventType::kFibHit, name,
                        static_cast<uint64_t>(e->depth()));
      return std::vector<FaceId>(e->fib->faces.begin(), e->fib->faces.end());
    }
  }
  DAPES_TRACE_NAMED(trace::EventType::kFibMiss, name);
  return {};
}

std::vector<Name> Fib::prefixes_for(FaceId face) const {
  std::vector<Name> out;
  // Ordered trie walk == the reference's std::map iteration order. On a
  // Forwarder-shared tree this visits CS/PIT entries too — O(tree), not
  // O(routes). Fine for its setup-time discovery callers; grow a FIB
  // side index before ever calling this per packet.
  tree_->enumerate([&](const NameTree::Entry& e) {
    if (e.fib != nullptr && e.fib->faces.contains(face)) {
      out.push_back(e.name);
    }
  });
  return out;
}

}  // namespace dapes::ndn
