#include "ndn/face.hpp"

#include <memory>
#include <optional>

#include "common/logging.hpp"

namespace dapes::ndn {

namespace {

/// @p frame's payload decoded as a Packet, once per frame: the first
/// receiver parses it and memoizes the immutable result on the frame
/// (see sim::Frame::memo), and every later receiver of the broadcast
/// reuses it. Null when the payload does not decode, which is memoized
/// too. The static tag is distinct per Packet type.
template <typename Packet>
const Packet* decode_once(const sim::Frame& frame) {
  static constexpr char kTag = 0;
  sim::FrameMemo& memo = frame.memo;
  const common::BytesView payload = frame.payload.view();
  if (memo.tag != &kTag || memo.source.data() != payload.data() ||
      memo.source.size() != payload.size()) {
    std::optional<Packet> packet = Packet::decode(frame.payload);
    memo.tag = &kTag;
    memo.source = payload;
    memo.value = packet ? std::make_shared<const Packet>(std::move(*packet))
                        : nullptr;
  }
  return static_cast<const Packet*>(memo.value.get());
}

}  // namespace

void WifiFace::send_interest(const Interest& interest) {
  auto frame = std::make_shared<sim::Frame>();
  frame->sender = node_;
  frame->payload = interest.wire();  // shares the cached encoding
  frame->kind = "ndn-interest";
  ++interests_sent_;
  sim::Radio::SendCompleteCallback cb;
  if (next_interest_cb_) {
    cb = std::move(next_interest_cb_);
    next_interest_cb_ = nullptr;
  }
  radio_.send(std::move(frame), std::move(cb));
}

void WifiFace::send_data(const Data& data) {
  if (data_window_.us <= 0) {
    ++data_sent_;
    auto frame = std::make_shared<sim::Frame>();
    frame->sender = node_;
    frame->payload = data.wire();  // cached: forwarding never re-serializes
    frame->kind = "ndn-data";
    radio_.send(std::move(frame));
    return;
  }
  if (pending_data_.contains(data.name())) {
    return;  // already queued
  }
  Duration delay = Duration::microseconds(static_cast<int64_t>(
      rng_.next_below(static_cast<uint64_t>(data_window_.us) + 1)));
  Name name = data.name();
  sim::EventId ev = sched_.schedule(delay, [this, name] { transmit_data(name); });
  // Slice-sharing copy into a shared handle: content and cached wire stay
  // views into the original buffer.
  pending_data_.emplace(std::move(name),
                        std::make_pair(std::make_shared<const Data>(data), ev));
}

void WifiFace::transmit_data(const Name& name) {
  auto it = pending_data_.find(name);
  if (it == pending_data_.end()) return;
  DataPtr data = std::move(it->second.first);
  pending_data_.erase(it);
  ++data_sent_;
  auto frame = std::make_shared<sim::Frame>();
  frame->sender = node_;
  frame->payload = data->wire();
  frame->kind = "ndn-data";
  radio_.send(std::move(frame));
}

void WifiFace::on_frame(const sim::FramePtr& frame) {
  const auto& payload = frame->payload;
  if (payload.empty()) return;
  // The NDN packet types (0x05/0x06) encode as a single leading byte, so
  // foreign frames (IP baselines) are skipped without any parsing.
  const uint8_t type = payload[0];
  if (type == tlv::kInterest) {
    // One decode per frame, shared by every receiver: its wire cache and
    // ApplicationParameters are views into the frame's shared buffer, and
    // the forwarder takes its own copy before mutating anything.
    if (const Interest* interest = decode_once<Interest>(*frame)) {
      deliver_interest(*interest);
    } else {
      DAPES_LOG_DEBUG("wifi-face") << "undecodable interest frame";
    }
  } else if (type == tlv::kData) {
    const Data* decoded = decode_once<Data>(*frame);
    if (decoded == nullptr) {
      DAPES_LOG_DEBUG("wifi-face") << "undecodable data frame";
      return;
    }
    // Each receiver gets its own copy (a name copy plus slice refcount
    // bumps, no re-parse): Data memoizes its content digest per instance,
    // so one shared instance would let a receiver's verify serve the next
    // receiver's and change the verify-cache traffic.
    const Data data = *decoded;
    // Suppress our own pending transmission of the same Data: someone
    // else answered first.
    auto it = pending_data_.find(data.name());
    if (it != pending_data_.end()) {
      sched_.cancel(it->second.second);
      pending_data_.erase(it);
      ++data_suppressed_;
    }
    deliver_data(data);
  }
  // Other frame types (IP baselines) are not ours; ignore.
}

}  // namespace dapes::ndn
