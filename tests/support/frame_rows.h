// Row frames of a SnapshotFrameSet as a replica serves them: each one cut
// out of the view frame under the row's content stamp.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/messages.h"
#include "proto/service.h"

namespace p4p::testsupport {

inline std::vector<std::vector<std::uint8_t>> RowFrames(
    const proto::SnapshotFrameSet& frames) {
  std::vector<std::vector<std::uint8_t>> rows;
  rows.reserve(frames.row_versions.size());
  for (std::size_t i = 0; i < frames.row_versions.size(); ++i) {
    rows.push_back(proto::RowFrameFromView(frames.view(), static_cast<std::int32_t>(i),
                                           frames.row_versions[i]));
  }
  return rows;
}

}  // namespace p4p::testsupport
