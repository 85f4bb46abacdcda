#include "chain/ids.h"

#include <cassert>

namespace xdeal {

PartyId KeyDirectory::Register(const std::string& name) {
  PartyId id{static_cast<uint32_t>(entries_.size())};
  entries_.emplace_back(name);
  return id;
}

const KeyPair& KeyDirectory::Keys(const Entry& entry) {
  std::call_once(entry.derived, [&entry] {
    entry.keys = KeyPair::FromSeed("world/" + entry.name);
  });
  return *entry.keys;
}

Result<PublicKey> KeyDirectory::PublicKeyOf(PartyId p) const {
  if (p.v >= entries_.size()) {
    return Status::NotFound("unknown party id");
  }
  return Keys(entries_[p.v]).public_key();
}

Result<std::string> KeyDirectory::NameOf(PartyId p) const {
  if (p.v >= entries_.size()) {
    return Status::NotFound("unknown party id");
  }
  return entries_[p.v].name;
}

const KeyPair& KeyDirectory::KeyPairOf(PartyId p) const {
  assert(p.v < entries_.size());
  return Keys(entries_[p.v]);
}

}  // namespace xdeal
