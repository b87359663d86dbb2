// Fuzz target for the block-segment and manifest-log parsers — the two
// binary formats the store trusts at Open. Segment files carry a footer
// whose offsets/sizes/counts are all attacker-controllable on disk, so
// the parser must survive torn footers, forged index offsets, restart
// offsets pointing past the block, allocation-bomb block/row counts, and
// checksum mismatches with a Status — never a crash, hang, or giant
// reserve. The same bytes are also fed to the MANIFEST record parser,
// which has its own torn-tail and count-bomb handling, and, as one data
// block, to the point-read path: BlockCursor::Parse, a restart-array Seek,
// then Next to the end of the block.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "store/block_format.h"
#include "store/manifest.h"
#include "store/segment.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto segment = ltm::store::ParseBlockSegmentFromBytes(bytes, "fuzz-input");
  if (segment.ok()) {
    // Walk what a successful parse claims to have verified so the
    // sanitizers check the established invariants.
    size_t total = segment->rows.size() + segment->blocks.size() +
                   segment->footer.num_blocks;
    (void)total;
  }
  auto manifest = ltm::store::LoadManifestFromBytes(bytes, "fuzz-input");
  if (manifest.ok()) {
    size_t total =
        manifest->manifest.segments.size() + manifest->records;
    (void)total;
  }
  auto cursor = ltm::store::BlockCursor::Parse(bytes);
  if (cursor.ok()) {
    // The seek target comes from where a valid block keeps its first
    // entity: byte 1 is its length, the entity bytes follow.
    const std::string_view target =
        size < 2 ? std::string_view()
                 : bytes.substr(2, std::min<size_t>(data[1], size - 2));
    if (cursor->Seek(target).ok()) {
      ltm::store::SegmentRow row;
      while (true) {
        auto more = cursor->Next(&row);
        if (!more.ok() || !*more) break;
      }
    }
  }
  return 0;
}
