#include "common/buffer.hpp"

#include <algorithm>
#include <utility>

namespace itdos {

std::uint64_t BufStats::copies = 0;
std::uint64_t BufStats::bytes_copied = 0;

// The refcounted unit of ownership: one sealed chunk. If `home` is set, the
// destructor hands the chunk's capacity back to that arena's pool instead of
// freeing it — this is what makes steady-state traffic allocation-free.
struct BufView::Slab {
  Bytes storage;
  std::shared_ptr<Arena::State> home;

  Slab(Bytes s, std::shared_ptr<Arena::State> h)
      : storage(std::move(s)), home(std::move(h)) {}

  ~Slab() {
    if (!home || home->pool.size() >= home->max_pooled) return;
    storage.clear();  // keeps capacity
    home->pool.push_back(std::move(storage));
  }
};

Arena::Arena(std::size_t chunk_reserve, std::size_t max_pooled)
    : state_(std::make_shared<State>()) {
  state_->chunk_reserve = chunk_reserve;
  state_->max_pooled = max_pooled;
}

Bytes Arena::acquire(std::size_t reserve_hint) {
  const std::size_t want = reserve_hint > 0 ? reserve_hint : state_->chunk_reserve;
  // LIFO scan from the top for a chunk big enough but not more than about
  // twice the size; most traffic is similarly sized, so the top usually
  // fits. A much larger chunk is left for a message of its size: a small
  // one would pin it for as long as it lives, and a large sealed payload
  // (an ordered 16 KiB request) shares the pool with 150-byte votes.
  for (auto it = state_->pool.rbegin(); it != state_->pool.rend(); ++it) {
    if (it->capacity() >= want && it->capacity() <= 2 * want + 128) {
      Bytes chunk = std::move(*it);
      state_->pool.erase(std::next(it).base());
      ++state_->reuses;
      return chunk;
    }
  }
  Bytes chunk;
  chunk.reserve(want);
  return chunk;
}

BufView Arena::seal(Bytes&& storage) {
  auto slab = std::make_shared<const BufView::Slab>(std::move(storage), state_);
  const std::uint8_t* data = slab->storage.data();
  const std::size_t len = slab->storage.size();
  return BufView(std::move(slab), data, len);
}

BufView::BufView(Bytes&& owned) {
  auto slab = std::make_shared<const Slab>(std::move(owned), nullptr);
  data_ = slab->storage.data();
  len_ = slab->storage.size();
  slab_ = std::move(slab);
}

BufView BufView::copy_of(ByteView b) {
  BufStats::note_copy(b.size());
  return BufView(Bytes(b.begin(), b.end()));
}

BufView BufView::borrow(ByteView b) {
  BufView v;
  v.data_ = b.data();
  v.len_ = b.size();
  return v;
}

BufView BufView::slice(std::size_t offset, std::size_t length) const {
  const std::size_t begin = std::min(offset, len_);
  const std::size_t count = std::min(length, len_ - begin);
  return BufView(slab_, data_ + begin, count);
}

Bytes BufView::clone_bytes() const {
  BufStats::note_copy(len_);
  return Bytes(data_, data_ + len_);
}

bool BufView::operator==(const BufView& other) const {
  return len_ == other.len_ && std::equal(data_, data_ + len_, other.data_);
}

}  // namespace itdos
