// pario/datatype.hpp — MPI-derived-datatype-style access descriptions.
//
// The paper's optimized BTIO "completely describes the solution vector by
// using MPI data types" and hands it to collective I/O in one call.  This
// module provides that vocabulary: a DataType is a byte-granular pattern
// (contiguous / strided vector / indexed), and a FileView (after
// MPI_File_set_view) tiles a datatype over a file so that a *logical*
// stream offset maps to scattered *physical* extents — which feed
// directly into TwoPhase, data sieving, or plain positioned I/O.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "pario/extent.hpp"

namespace pario {

class DataType {
 public:
  /// `bytes` contiguous bytes.
  static DataType contiguous(std::uint64_t bytes);
  /// `count` blocks of `blocklen` bytes, consecutive block starts
  /// `stride` bytes apart (stride >= blocklen).
  static DataType vector(std::uint64_t count, std::uint64_t blocklen,
                         std::uint64_t stride);
  /// Arbitrary (offset, length) pieces; offsets ascending, non-overlapping.
  static DataType indexed(
      std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces);

  /// Payload bytes per instance (sum of piece lengths).
  std::uint64_t size() const noexcept { return size_; }
  /// Bytes of file the instance spans (next instance starts here).
  std::uint64_t extent() const noexcept { return extent_; }
  /// Widen the extent (MPI_Type_create_resized) — e.g. to skip other
  /// ranks' interleaved data between instances.
  DataType resized(std::uint64_t new_extent) const;

  std::size_t piece_count() const noexcept { return pieces_.size(); }

  /// One instance's extents at absolute file offset `file_offset`,
  /// payload mapped to buffer offsets starting at `buf_offset`.
  std::vector<Extent> flatten(std::uint64_t file_offset,
                              std::uint64_t buf_offset = 0) const;

 private:
  DataType(std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces,
           std::uint64_t extent);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces_;
  std::uint64_t size_ = 0;
  std::uint64_t extent_ = 0;
};

/// A file window: `filetype` tiled from displacement `disp` onward.  The
/// logical stream is the concatenation of every instance's payload.
class FileView {
 public:
  FileView(std::uint64_t disp, DataType filetype)
      : disp_(disp), type_(std::move(filetype)) {}

  const DataType& filetype() const noexcept { return type_; }

  /// Physical extents backing logical [view_offset, view_offset+length),
  /// with buffer offsets 0..length.  Extents are coalesced.
  std::vector<Extent> map(std::uint64_t view_offset,
                          std::uint64_t length) const;

  /// Physical file offset of a single logical byte.
  std::uint64_t physical_of(std::uint64_t view_offset) const;

 private:
  std::uint64_t disp_;
  DataType type_;
};

}  // namespace pario
