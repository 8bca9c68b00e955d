#include "engines/host_memory.h"

#include <algorithm>

namespace panic::engines {

void HostMemory::write(std::uint64_t addr,
                       std::span<const std::uint8_t> data) {
  std::size_t i = 0;
  while (i < data.size()) {
    const std::uint64_t a = addr + i;
    auto& page = store_[a >> kPageShift];
    if (page == nullptr) page = std::make_unique<Page>();
    const std::size_t off = a & (kPageSize - 1);
    const std::size_t n = std::min(data.size() - i, kPageSize - off);
    std::copy_n(data.data() + i, n, page->data.data() + off);
    // Mark [off, off + n) written: a mask for each end word, and every
    // word between them set whole.
    std::uint64_t* words = page->written.data();
    const std::size_t first = off / kWordBytes;
    const std::size_t last = (off + n - 1) / kWordBytes;
    const std::uint64_t head = ~std::uint64_t{0} << (off % kWordBytes);
    const std::uint64_t tail =
        ~std::uint64_t{0} >> (kWordBytes - 1 - (off + n - 1) % kWordBytes);
    if (first == last) {
      words[first] |= head & tail;
    } else {
      words[first] |= head;
      std::fill(words + first + 1, words + last, ~std::uint64_t{0});
      words[last] |= tail;
    }
    i += n;
  }
  bytes_written_ += data.size();
}

std::uint8_t HostMemory::deterministic_byte(std::uint64_t addr) {
  std::uint64_t z = addr + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::uint8_t>(z ^ (z >> 31));
}

std::vector<std::uint8_t> HostMemory::read(std::uint64_t addr,
                                           std::uint32_t len) const {
  std::vector<std::uint8_t> out;
  read_into(addr, len, out);
  return out;
}

void HostMemory::read_into(std::uint64_t addr, std::uint32_t len,
                           std::vector<std::uint8_t>& out) const {
  out.resize(len);
  std::size_t i = 0;
  while (i < len) {
    const std::uint64_t a = addr + i;
    const std::uint64_t page_base = a & ~std::uint64_t{kPageSize - 1};
    const std::size_t off = a - page_base;
    const std::size_t n =
        std::min<std::size_t>(len - i, kPageSize - off);
    const auto it = store_.find(a >> kPageShift);
    if (it == store_.end()) {
      for (std::size_t j = 0; j < n; ++j) out[i + j] = deterministic_byte(a + j);
    } else {
      const Page& p = *it->second;
      // Word by word: a fully written word is one copy; only the bytes
      // of a partly written one are tested against the bitmap.
      for (std::size_t b = off; b < off + n;) {
        const std::uint64_t word = p.written[b / kWordBytes];
        const std::size_t end =
            std::min(off + n, (b / kWordBytes + 1) * kWordBytes);
        std::uint8_t* dst = out.data() + i + (b - off);
        if (word == ~std::uint64_t{0}) {
          std::copy(p.data.data() + b, p.data.data() + end, dst);
        } else {
          for (std::size_t k = b; k < end; ++k) {
            *dst++ = (word >> (k % kWordBytes) & 1) != 0
                         ? p.data[k]
                         : deterministic_byte(page_base + k);
          }
        }
        b = end;
      }
    }
    i += n;
  }
}

std::uint64_t HostMemory::allocate(std::uint32_t len) {
  const std::uint64_t addr = next_alloc_;
  next_alloc_ += (len + 63) & ~63ull;  // cache-line align
  return addr;
}

}  // namespace panic::engines
