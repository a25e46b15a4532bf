#include "ndn/verify_prewarm.hpp"

#include "ndn/tlv.hpp"
#include "trace/trace.hpp"

namespace dapes::ndn {

void DataVerifyPrewarm::stage(const sim::FramePtr* frames, size_t count) {
  staged_.clear();

  // Collect the decodable Data frames, deduplicating by payload pointer:
  // frames staged together can share a buffer (retransmissions), and one
  // staged entry serves every transmission of it.
  for (size_t i = 0; i < count; ++i) {
    if (!frames[i]) continue;
    const common::BufferSlice& payload = frames[i]->payload;
    if (payload.empty() || payload.data()[0] != tlv::kData) continue;
    // Cache keys need a ref-counted anchor; unowned payloads can't be
    // pinned, so their receivers just take the compute path.
    if (!payload.owns_storage()) continue;
    bool dup = false;
    for (const Staged& s : staged_) {
      if (s.key == payload.data()) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    std::optional<Data> decoded = Data::decode(payload);
    if (!decoded) continue;
    Staged s;
    s.key = payload.data();
    s.data = std::move(*decoded);
    staged_.push_back(std::move(s));
  }
  if (staged_.empty()) return;

  // Content digests: serve already-cached ranges, batch the rest through
  // the multi-buffer engine (one SIMD pass hashes 4 or 8 frames).
  std::vector<common::BytesView> views;
  std::vector<size_t> missing;
  for (size_t i = 0; i < staged_.size(); ++i) {
    const common::BytesView content = staged_[i].data.content();
    if (auto hit = cache_.lookup_digest(content.data(), content.size())) {
      staged_[i].digest = *hit;
    } else {
      views.push_back(content);
      missing.push_back(i);
    }
  }
  if (!missing.empty()) {
    std::vector<crypto::Digest> digests(missing.size());
    crypto::sha256_many(views.data(), digests.data(), missing.size());
    crypto::verify_counters().content_digests_computed.fetch_add(
        missing.size(), std::memory_order_relaxed);
    for (size_t j = 0; j < missing.size(); ++j) {
      staged_[missing[j]].digest = digests[j];
    }
  }

  // MAC verdicts against the trust keychain. The verdict for an unknown
  // signer stays uncached (secret == nullptr): Data::verify already
  // short-circuits those to false without hashing.
  for (Staged& s : staged_) {
    const std::optional<crypto::Signature>& sig = s.data.signature();
    if (!sig) continue;
    s.secret = trust_.secret_for(sig->signer);
    if (!s.secret) continue;
    const common::BufferSlice& wire = s.data.wire();
    if (auto hit = cache_.lookup_mac(wire.data(), wire.size(), *s.secret)) {
      s.verdict = *hit;
    } else {
      s.verdict = crypto::KeyChain::compute_mac(
                      *s.secret, s.data.name().to_uri(), s.digest) == sig->mac;
    }
  }
}

void DataVerifyPrewarm::commit(const sim::Frame& frame) {
  for (const Staged& s : staged_) {
    if (s.key != frame.payload.data()) continue;
    const common::BufferSlice& wire = s.data.wire();
    const common::BytesView content = s.data.content();
    // The cached/fresh flag is decided here, at commit time, against the
    // cache state the receivers are about to read.
    const bool digest_cached =
        cache_.lookup_digest(content.data(), content.size()).has_value();
    const bool mac_cached =
        s.secret == nullptr ||
        cache_.lookup_mac(wire.data(), wire.size(), *s.secret).has_value();
    if (!digest_cached) cache_.store_digest(s.data.content_slice(), s.digest);
    if (s.secret && !mac_cached) cache_.store_mac(wire, *s.secret, s.verdict);
    DAPES_TRACE_EVENT(trace::EventType::kCryptoPrewarm, frame.sender,
                      (digest_cached && mac_cached) ? 1u : 0u,
                      static_cast<uint64_t>(wire.size()));
    return;
  }
}

}  // namespace dapes::ndn
