// Synthetic host-memory model behind the DMA engine.
//
// The paper's NIC talks to real host DRAM over PCIe; we substitute a
// deterministic store: writes are retained, reads return written bytes or
// a deterministic pseudo-random fill for untouched addresses (so DMA reads
// always produce stable, checkable data without pre-populating gigabytes).
//
// Every stored address comes from a bump allocator counting up from
// kAllocBase: TX frames and descriptors, the KVS value log.  Host-bound
// packets the DMA engine delivers are counted, not stored: nothing reads
// them back, so delivery touches no page however long a run lasts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace panic::engines {

class HostMemory {
 public:
  static constexpr std::uint64_t kAllocBase = std::uint64_t{1} << 20;

  void write(std::uint64_t addr, std::span<const std::uint8_t> data);
  std::vector<std::uint8_t> read(std::uint64_t addr, std::uint32_t len) const;
  /// Reads into an existing buffer (resized to `len`), reusing its
  /// capacity — the DMA engine fills recycled completion messages with it.
  void read_into(std::uint64_t addr, std::uint32_t len,
                 std::vector<std::uint8_t>& out) const;

  /// Bump allocator for TX frames, descriptors and KVS values: 64-byte
  /// aligned, counting up from kAllocBase.
  std::uint64_t allocate(std::uint32_t len);

  /// A host-bound packet of `len` bytes reached the host: counted in
  /// bytes_written(), not stored.
  void count_delivery(std::size_t len) { bytes_written_ += len; }

  /// Every byte written or delivered.
  std::size_t bytes_written() const { return bytes_written_; }
  /// Pages touched so far; tests use it to check memory stays bounded.
  std::size_t pages_resident() const { return store_.size(); }

 private:
  static constexpr std::size_t kPageShift = 12;
  static constexpr std::size_t kPageSize = 1u << kPageShift;
  static constexpr std::size_t kWordBytes = 64;  ///< bytes per bitmap word

  /// Sparse page: raw bytes plus a written-bitmap, one bit per byte, so
  /// untouched bytes keep reading as the deterministic fill.  Only the
  /// bitmap is zeroed on creation; `data` is read only where a bit is set.
  struct Page {
    Page() : written{} {}
    std::array<std::uint8_t, kPageSize> data;
    std::array<std::uint64_t, kPageSize / kWordBytes> written;
  };

  static std::uint8_t deterministic_byte(std::uint64_t addr);

  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> store_;  // by page
  std::uint64_t next_alloc_ = kAllocBase;
  std::size_t bytes_written_ = 0;
};

}  // namespace panic::engines
