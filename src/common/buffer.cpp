#include "common/buffer.hpp"

#include <algorithm>
#include <utility>

namespace itdos {

std::uint64_t BufStats::copies = 0;
std::uint64_t BufStats::bytes_copied = 0;

BufView::BufView(Bytes&& owned) {
  auto chunk = std::make_shared<const Bytes>(std::move(owned));
  data_ = chunk->data();
  len_ = chunk->size();
  chunk_ = std::move(chunk);
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
  return BufView(chunk_, data_ + begin, count);
}

Bytes BufView::clone_bytes() const {
  BufStats::note_copy(len_);
  return Bytes(data_, data_ + len_);
}

bool BufView::operator==(const BufView& other) const {
  return len_ == other.len_ && std::equal(data_, data_ + len_, other.data_);
}

}  // namespace itdos
