#include "ndn/forwarder.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "trace/trace.hpp"

namespace dapes::ndn {

void MulticastStrategy::after_receive_interest(Forwarder& fw, FaceId in_face,
                                               const Interest& interest,
                                               PitEntry& /*entry*/) {
  for (FaceId out : fw.fib().lookup(interest.name())) {
    if (out == in_face) continue;
    fw.send_interest_to(out, interest);
  }
}

Forwarder::Forwarder(sim::Scheduler& sched, Options options)
    : sched_(sched),
      options_(options),
      tree_(std::make_shared<NameTree>()),
      cs_(options.cs_capacity, tree_),
      pit_(tree_),
      fib_(tree_),
      strategy_(std::make_unique<MulticastStrategy>()) {}

FaceId Forwarder::add_face(std::shared_ptr<Face> face) {
  faces_.push_back(face);
  FaceId id = static_cast<FaceId>(faces_.size());
  face->set_id(id);
  face->set_receive_handlers(
      [this, id](const Interest& interest) {
        on_incoming_interest(id, interest);
      },
      [this, id](const Data& data) { on_incoming_data(id, data); });
  return id;
}

Face* Forwarder::face(FaceId id) {
  if (id == 0 || id > faces_.size()) return nullptr;
  return faces_[id - 1].get();
}

void Forwarder::set_strategy(std::unique_ptr<ForwardingStrategy> strategy) {
  strategy_ = std::move(strategy);
}

void Forwarder::send_interest_to(FaceId out_face, const Interest& interest) {
  Face* f = face(out_face);
  if (f == nullptr) return;
  ++stats_.interests_forwarded;
  f->send_interest(interest);
}

void Forwarder::send_data_to(FaceId out_face, const Data& data) {
  Face* f = face(out_face);
  if (f == nullptr) return;
  ++stats_.data_forwarded;
  f->send_data(data);
}

void Forwarder::on_incoming_interest(FaceId in_face, Interest interest) {
  trace::NodeScope trace_scope(trace_node_);
  ++stats_.interests_in;
  Face* in = face(in_face);
  const bool from_network = in != nullptr && !in->is_local();

  if (from_network) {
    strategy_->on_overhear_interest(*this, in_face, interest);
    // Hop limit is decremented at each network hop; exhausted Interests
    // are accepted locally (CS/PIT) but never forwarded further — we
    // encode that by dropping them before PIT insert if already 0.
    if (interest.hop_limit() == 0) {
      ++stats_.hop_limit_drops;
      return;
    }
    interest.set_hop_limit(interest.hop_limit() - 1);
  }

  // One probe resolves the name for every stage below.
  const Name& name = interest.name();
  NameTree::Entry* entry = tree_->find_exact(name);

  // Loop detection by (name, nonce).
  if (pit_.has_nonce(entry, name, interest.nonce())) {
    ++stats_.loops_dropped;
    DAPES_TRACE_NAMED(trace::EventType::kPitLoopDrop, name,
                      static_cast<uint64_t>(interest.nonce()));
    return;
  }

  // Content Store (an expired hit is erased, which may prune the entry:
  // find() hands back the entry that is current afterwards).
  if (auto cached = cs_.find(entry, name, interest.can_be_prefix(),
                             sched_.now())) {
    ++stats_.cs_hits;
    if (in != nullptr) {
      ++stats_.data_forwarded;
      in->send_data(*cached);
    }
    return;
  }

  // PIT.
  if (entry != nullptr && entry->pit != nullptr) {
    PitEntry* existing = entry->pit.get();
    ++stats_.pit_aggregated;
    DAPES_TRACE_NAMED(trace::EventType::kPitAggregate, name);
    existing->nonces.insert(interest.nonce());
    if (std::find(existing->in_faces.begin(), existing->in_faces.end(),
                  in_face) == existing->in_faces.end()) {
      existing->in_faces.push_back(in_face);
    }
    return;
  }

  if (entry == nullptr) entry = tree_->insert(name);
  PitEntry& pit_entry = pit_.insert(entry);
  pit_entry.can_be_prefix = interest.can_be_prefix();
  pit_entry.in_faces.push_back(in_face);
  pit_entry.nonces.insert(interest.nonce());
  pit_entry.expiry = sched_.now() + interest.lifetime();
  // (this, handle) fits std::function's inline buffer: no allocation.
  const NameTree::Handle handle = tree_->handle_of(entry);
  pit_entry.expiry_event = sched_.schedule(
      interest.lifetime(), [this, handle] { on_pit_expiry(handle); });

  strategy_->after_receive_interest(*this, in_face, interest, pit_entry);
}

void Forwarder::on_incoming_data(FaceId in_face, const Data& data) {
  trace::NodeScope trace_scope(trace_node_);
  ++stats_.data_in;
  Face* in = face(in_face);
  const bool from_network = in != nullptr && !in->is_local();
  if (from_network) {
    strategy_->on_overhear_data(*this, in_face, data);
  }

  // One walk resolves the name: the deepest present prefix is the exact
  // entry when the name is present, its parent chain holds every
  // CanBePrefix candidate, and a CS insert of an absent name builds the
  // missing entries below it.
  const Name& name = data.name();
  NameTree::Entry* longest = tree_->find_longest(name);
  PitMatches matched;
  pit_.matches(longest, name.size(), matched);
  if (matched.size() == 0) {
    ++stats_.unsolicited_data;
    if (strategy_->cache_unsolicited(*this, in_face, data)) {
      cs_.insert(longest, data, sched_.now());
    }
    return;
  }

  // Matched entries hold PIT state, so the CS insert (and an eviction it
  // triggers) cannot prune them.
  if (options_.cache_solicited) {
    cs_.insert(longest, data, sched_.now());
  }

  // Collect the union of downstream faces across all satisfied entries so
  // a broadcast face transmits the Data at most once, in ascending face
  // order. A broadcast face that is both the Data's in-face and a
  // recorded downstream still gets the Data when we relayed the Interest
  // ourselves (multi-hop reverse path over a single radio).
  detail::InlineVec<FaceId, 8> out_faces;
  auto add_out_face = [&out_faces](FaceId f) {
    for (size_t i = 0; i < out_faces.size(); ++i) {
      if (out_faces[i] == f) return;
    }
    out_faces.push_back(f);
    for (size_t i = out_faces.size() - 1; i > 0 && out_faces[i - 1] > f; --i) {
      std::swap(out_faces[i - 1], out_faces[i]);
    }
  };
  for (size_t m = 0; m < matched.size(); ++m) {
    NameTree::Entry* e = matched[m];
    PitEntry* entry = e->pit.get();
    for (FaceId f : entry->in_faces) {
      if (f != in_face) {
        add_out_face(f);
        continue;
      }
      Face* downstream = face(f);
      if (entry->relayed_to_network && downstream != nullptr &&
          !downstream->is_local()) {
        add_out_face(f);
      }
    }
    for (uint32_t nonce : entry->nonces) {
      pit_.record_dead_nonce(*e, nonce);
    }
    DAPES_TRACE_NAMED(trace::EventType::kPitSatisfy, e->name);
    sched_.cancel(entry->expiry_event);
    // Pruning stops at the next (shallower) match: it holds PIT state.
    pit_.erase(e);
  }

  for (size_t i = 0; i < out_faces.size(); ++i) {
    send_data_to(out_faces[i], data);
  }
}

void Forwarder::on_pit_expiry(NameTree::Handle pit_entry) {
  trace::NodeScope trace_scope(trace_node_);
  // The handle fails once the entry was pruned, also when its storage
  // went to another name since.
  NameTree::Entry* e = tree_->resolve(pit_entry);
  if (e == nullptr || e->pit == nullptr) return;
  ++stats_.pit_timeouts;
  DAPES_TRACE_NAMED(trace::EventType::kPitExpire, e->name);
  for (uint32_t nonce : e->pit->nonces) {
    pit_.record_dead_nonce(*e, nonce);
  }
  const Name name = e->name;  // the erase may prune e
  pit_.erase(e);
  strategy_->on_interest_timeout(*this, name);
}

}  // namespace dapes::ndn
