// BUF-002 fixture: the safe patterns — scoped borrows, owning views.
#include <cstdint>

namespace fixture {

// ok: the borrow never escapes the statement scope.
bool parses(ByteView wire) {
  const BufView scoped = BufView::borrow(wire);
  return Decoder(scoped).is_ok();
}

// ok: an owning copy refcounts the storage; holding is safe.
void Cache::hold(ByteView wire) {
  BufView owned = BufView::copy_of(wire);
  held_ = owned;
}

// ok: returning a sealed view transfers a refcount, not an alias.
BufView roundtrip() {
  Bytes local = encode_something();
  BufView sealed(std::move(local));
  return sealed;
}

}  // namespace fixture
