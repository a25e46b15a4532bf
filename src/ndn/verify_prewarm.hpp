/// @file
/// Delivery prewarm that verifies each Data broadcast once per frame.
///
/// DAPES receivers each verify every Data packet they accept (paper §III:
/// per-packet name/content binding). On a broadcast medium one frame
/// reaches N receivers, so the naive layering hashes and MACs the same
/// bytes N times. This hook plugs into `sim::Medium`'s delivery path
/// (sim::DeliveryPrewarm) and does the cryptographic work once per frame:
///
///   * `stage` decodes each staged Data frame, hashes the content
///     payloads through sha256_many (the medium stages one frame per
///     delivery; callers staging several get 4/8 frames per SIMD pass),
///     and computes the MAC verdict against the trust keychain. Reads
///     the cache, never writes it.
///   * `commit` publishes the digest and verdict into the trial's
///     crypto::VerifyCache, keyed on the shared frame buffer, and emits
///     one `crypto.prewarm` trace event per Data frame with a
///     commit-time cached/fresh flag (see trace/events.hpp).
///
/// Receivers then serve both the content digest and the MAC verdict from
/// the cache (ndn::Data::verify, core::Metadata::verify_packet), which
/// the harness installs on the trial thread with crypto::VerifyCacheScope.
/// The cache is exact — results with the prewarm on or off are
/// identical; test_verify_cache asserts it trial-for-trial.
#pragma once

#include <vector>

#include "crypto/verify_cache.hpp"
#include "ndn/packet.hpp"
#include "sim/medium.hpp"

namespace dapes::ndn {

/// sim::DeliveryPrewarm that pre-verifies Data frames into a
/// crypto::VerifyCache (see the file comment). Non-Data frames
/// (Interests, hellos) and undecodable payloads are skipped untouched.
class DataVerifyPrewarm : public sim::DeliveryPrewarm {
 public:
  /// Prewarm into @p cache, checking MACs against @p trust (the trial's
  /// shared trust keychain). Both must outlive the prewarm.
  DataVerifyPrewarm(crypto::VerifyCache& cache, const crypto::KeyChain& trust)
      : cache_(cache), trust_(trust) {}

  void stage(const sim::FramePtr* frames, size_t count) override;
  void commit(const sim::Frame& frame) override;

 private:
  /// One staged Data frame: the decoded packet (zero-copy views into the
  /// frame buffer — its wire() slice is the cache anchor) plus the work
  /// products commit publishes.
  struct Staged {
    const void* key = nullptr;  ///< frame payload pointer (commit lookup)
    Data data;                  ///< decoded packet, views into the frame
    const crypto::Digest* secret = nullptr;  ///< signer secret (may be null)
    crypto::Digest digest{};    ///< SHA-256 of the content
    bool verdict = false;       ///< MAC check result (valid iff secret)
  };

  crypto::VerifyCache& cache_;
  const crypto::KeyChain& trust_;
  std::vector<Staged> staged_;  ///< reused across stage/commit cycles
};

}  // namespace dapes::ndn
