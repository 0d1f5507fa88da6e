#include "sim/arena.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define DYNREG_ASAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DYNREG_ASAN_ACTIVE 1
#endif
#endif

#ifdef DYNREG_ASAN_ACTIVE
#include <sanitizer/asan_interface.h>
#endif

namespace dynreg::sim {
namespace {

constexpr std::size_t align_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

void poison_span(void* p, std::size_t n) {
#ifdef DYNREG_ASAN_ACTIVE
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

void unpoison_span(void* p, std::size_t n) {
#ifdef DYNREG_ASAN_ACTIVE
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace

Arena::Arena(std::size_t chunk_bytes) : chunk_bytes_(chunk_bytes) {}

Arena::~Arena() {
  // ASan forbids returning poisoned memory to the system allocator; clear
  // every region before the unique_ptrs release the buffers.
  for (auto& c : chunks_) unpoison_span(c->bytes.get(), c->capacity);
}

Arena::Chunk* Arena::new_chunk(std::size_t capacity) {
  auto owned = std::make_unique<Chunk>();
  // No zero fill: an allocation's bytes are read only after they are written.
  owned->bytes.reset(new unsigned char[capacity]);
  owned->capacity = capacity;
  Chunk* c = owned.get();
  chunks_.push_back(std::move(owned));
  ++chunks_created_;
  bytes_reserved_ += capacity;
  poison_span(c->bytes.get(), c->capacity);
  return c;
}

void Arena::reclaim(Chunk* c) {
  // Every allocation lies below the bump cursor, and everything above it is
  // as the last reclaim (or the chunk's creation) left it.
#ifdef DYNREG_ASAN_ACTIVE
  poison_span(c->bytes.get(), c->capacity);
#else
  std::memset(c->bytes.get(), kPoisonByte, c->used);
#endif
  c->used = 0;
  ++chunks_recycled_;
  if (!c->open) free_.push_back(c);  // the bump target starts over in place
}

void Arena::open_chunk_for(std::size_t size, std::size_t align) {
  if (open_ != nullptr) {
    open_->open = false;
    if (open_->live == 0) free_.push_back(open_);  // reclaimed when it emptied
    open_ = nullptr;
  }
  const std::size_t needed = sizeof(Header) + size + align;
  if (needed <= chunk_bytes_) {
    if (!free_.empty()) {
      open_ = free_.back();
      free_.pop_back();
    } else {
      open_ = new_chunk(chunk_bytes_);
    }
    open_->open = true;
    return;
  }
  // Oversize request: a recycled chunk large enough (a reclaimed oversize
  // chunk, so repeated large requests reuse storage instead of growing the
  // arena without bound), else a dedicated new one. It becomes the bump
  // target like any other; the next allocation that does not fit seals it.
  const auto fits = std::find_if(free_.rbegin(), free_.rend(),
                                 [needed](const Chunk* c) { return c->capacity >= needed; });
  if (fits != free_.rend()) {
    open_ = *fits;
    free_.erase(std::next(fits).base());
  } else {
    open_ = new_chunk(needed);
  }
  open_->open = true;
}

void* Arena::allocate(std::size_t size, std::size_t align) {
  if (align < alignof(Header)) align = alignof(Header);
  if (open_ == nullptr ||
      align_up(open_->used + sizeof(Header), align) + size > open_->capacity) {
    open_chunk_for(size, align);
  }
  Chunk* c = open_;
  const std::size_t p_off = align_up(c->used + sizeof(Header), align);
  c->used = p_off + size;
  ++c->live;
  ++live_;
  unsigned char* p = c->bytes.get() + p_off;
  unpoison_span(p - sizeof(Header), sizeof(Header) + size);
  auto* h = reinterpret_cast<Header*>(p - sizeof(Header));
  h->chunk = c;
  h->size = size;
  return p;
}

void Arena::deallocate(void* p) noexcept {
  auto* h = reinterpret_cast<Header*>(static_cast<unsigned char*>(p) -
                                      sizeof(Header));
  Chunk* c = h->chunk;
  // Under ASan the span turns inaccessible immediately; plain builds poison
  // the chunk's bytes when its last allocation dies.
  poison_span(h, sizeof(Header) + h->size);
  --c->live;
  --live_;
  if (c->live == 0) reclaim(c);
}

BlockPool::~BlockPool() {
  for (auto& slab : slabs_) unpoison_span(slab.get(), kSlabBlocks * kBlockBytes);
}

void* BlockPool::allocate() {
  ++live_;
  if (free_ != nullptr) {
    Block* b = free_;
    unpoison_span(b, kBlockBytes);
    free_ = b->next;
    return b;
  }
  if (carved_ == kSlabBlocks) {
    slabs_.emplace_back(new Block[kSlabBlocks]);  // uninitialised: carved on demand
    poison_span(slabs_.back().get(), kSlabBlocks * kBlockBytes);
    carved_ = 0;
  }
  Block* b = &slabs_.back()[carved_++];
  unpoison_span(b, kBlockBytes);
  return b;
}

void BlockPool::deallocate(void* p) noexcept {
  --live_;
  free_ = new (p) Block{free_};  // the freed object's storage becomes a list node
  poison_span(free_, kBlockBytes);
}

bool Arena::address_is_poisoned(const void* p) {
#ifdef DYNREG_ASAN_ACTIVE
  return __asan_address_is_poisoned(p) != 0;
#else
  (void)p;
  return false;
#endif
}

}  // namespace dynreg::sim
