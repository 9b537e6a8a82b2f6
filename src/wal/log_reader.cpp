#include "wal/log_reader.h"

#include <cstring>

#include "util/coding.h"
#include "util/hash.h"

namespace mio::wal {

LogReader::LogReader(const LogSegment *segment) : segment_(segment) {}

bool
LogReader::readRecord(std::string *record)
{
    // Like every other log walk, replay pays one media read per chunk
    // (latency once, then its bytes), charged as the walk leaves it.
    size_t finished_bytes = 0;
    bool found = false;
    {
        std::lock_guard<std::mutex> lock(segment_->mu_);
        while (chunk_index_ < segment_->chunks_.size()) {
            const auto &chunk = segment_->chunks_[chunk_index_];
            if (offset_ + 8 > chunk.used) {
                finished_bytes += offset_;
                chunk_index_++;
                offset_ = 0;
                continue;
            }
            uint32_t crc = decodeFixed32(chunk.data + offset_);
            uint32_t len = decodeFixed32(chunk.data + offset_ + 4);
            const char *data = chunk.data + offset_ + 8;
            if (offset_ + 8 + len > chunk.used ||
                segment_->frameChecksum(data, len) != crc) {
                // A torn tail ends replay: nothing past it is read.
                saw_corruption_ = true;
                finished_bytes += offset_;
                chunk_index_ = segment_->chunks_.size();
                break;
            }
            record->assign(data, len);
            offset_ += 8 + len;
            found = true;
            break;
        }
    }
    if (finished_bytes > 0)
        segment_->device_->chargeRead(finished_bytes);
    return found;
}

} // namespace mio::wal
