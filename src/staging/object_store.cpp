#include "staging/object_store.hpp"

namespace corec::staging {

Status ObjectStore::put(DataObject object, StoredKind kind) {
  const std::size_t new_bytes = object.logical_size;
  // One probe: insert an empty entry or find the existing one.
  auto [entry, inserted] = entries_.try_emplace(object.desc);
  const std::size_t replaced = inserted ? 0 : entry->object.logical_size;
  if (capacity_ != 0 &&
      total_bytes_ - replaced + new_bytes > capacity_) {
    // A refusal leaves nothing behind.
    if (inserted) entries_.erase(object.desc);
    return Status::ResourceExhausted("object store over capacity");
  }
  if (!inserted) {
    total_bytes_ -= replaced;
    kind_bytes_[static_cast<std::size_t>(entry->kind)] -= replaced;
  }
  *entry = StoredObject{std::move(object), kind};
  total_bytes_ += new_bytes;
  kind_bytes_[static_cast<std::size_t>(kind)] += new_bytes;
  return Status::Ok();
}

const StoredObject* ObjectStore::find(const ObjectDescriptor& desc) const {
  return entries_.find(desc);
}

bool ObjectStore::erase(const ObjectDescriptor& desc) {
  StoredObject gone;
  if (!entries_.erase(desc, &gone)) return false;
  total_bytes_ -= gone.object.logical_size;
  kind_bytes_[static_cast<std::size_t>(gone.kind)] -=
      gone.object.logical_size;
  return true;
}

bool ObjectStore::flip_byte(const ObjectDescriptor& desc,
                            std::size_t offset) {
  StoredObject* entry = entries_.find(desc);
  if (entry == nullptr) return false;
  DataObject& object = entry->object;
  if (object.phantom || object.data.empty()) return false;
  // mutable_span() detaches to a private copy when the payload is
  // shared with sibling replicas, so injected corruption stays local
  // to this holder; the generation bump invalidates any cached CRC.
  MutableByteSpan bytes = object.data.mutable_span();
  bytes[offset % bytes.size()] ^= 0x40;
  return true;
}

void ObjectStore::clear() {
  entries_.clear();
  total_bytes_ = 0;
  for (auto& b : kind_bytes_) b = 0;
}

void ObjectStore::for_each(
    const std::function<void(const StoredObject&)>& fn) const {
  entries_.for_each(
      [&fn](const ObjectDescriptor&, const StoredObject& stored) {
        fn(stored);
      });
}

}  // namespace corec::staging
