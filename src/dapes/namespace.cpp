#include "dapes/namespace.hpp"

#include <cstdio>

namespace dapes::core {

Name discovery_prefix() {
  Name n;
  n.append(kAppPrefix).append(kDiscoveryComponent);
  return n;
}

Name discovery_query_name(uint64_t query_id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "q-%016llx",
                static_cast<unsigned long long>(query_id));
  return discovery_prefix().appended(buf);
}

Name discovery_response_name(const Name& query, const std::string& peer_id) {
  return query.appended(peer_id);
}

bool is_discovery_query(const Name& name) {
  if (name.size() != 3) return false;
  if (!discovery_prefix().is_prefix_of(name)) return false;
  std::string_view last = name[2].str();
  return last.size() > 2 && last.starts_with("q-");
}

Name bitmap_prefix(const Name& collection) {
  Name n;
  n.append(kAppPrefix).append(kBitmapComponent);
  for (size_t i = 0; i < collection.size(); ++i) {
    n.append(collection[i]);
  }
  return n;
}

Name bitmap_data_name(const Name& collection, const std::string& peer_id,
                      uint64_t round) {
  return bitmap_prefix(collection).appended(peer_id).appended_number(round);
}

Name metadata_prefix(const Name& collection, const std::string& digest8) {
  return collection.appended(kMetadataComponent).appended(digest8);
}

Name metadata_segment_name(const Name& prefix, uint64_t segment) {
  return prefix.appended_number(segment);
}

Name packet_name(const Name& collection, const std::string& file_name,
                 uint64_t seq) {
  return collection.appended(file_name).appended_number(seq);
}

std::optional<PacketNameParts> parse_packet_name(const Name& name,
                                                 size_t collection_size) {
  if (name.size() != collection_size + 2) return std::nullopt;
  auto seq = name[name.size() - 1].to_number();
  if (!seq) return std::nullopt;
  PacketNameParts parts;
  parts.collection = name.prefix(collection_size);
  parts.file_name = name[collection_size].to_string();
  parts.seq = *seq;
  return parts;
}

bool is_control_name(const Name& name) {
  return !name.empty() && name[0].str() == kAppPrefix;
}

bool is_metadata_name(const Name& name) {
  for (size_t i = 0; i < name.size(); ++i) {
    if (name[i].str() == kMetadataComponent) return i > 0;
  }
  return false;
}

std::optional<Name> collection_of_metadata_name(const Name& name) {
  for (size_t i = 1; i < name.size(); ++i) {
    if (name[i].str() == kMetadataComponent) {
      return name.prefix(i);
    }
  }
  return std::nullopt;
}

}  // namespace dapes::core
