#include "wal/log_reader.h"

#include <cstring>

#include "util/coding.h"
#include "util/hash.h"

namespace mio::wal {

LogReader::LogReader(const LogSegment *segment) : segment_(segment) {}

bool
LogReader::readRecord(std::string *record)
{
    std::unique_lock<std::mutex> lock(segment_->mu_);
    while (chunk_index_ < segment_->chunks_.size()) {
        const auto &chunk = segment_->chunks_[chunk_index_];
        if (offset_ + 8 > chunk.used) {
            chunk_index_++;
            offset_ = 0;
            continue;
        }
        uint32_t crc = decodeFixed32(chunk.data + offset_);
        uint32_t len = decodeFixed32(chunk.data + offset_ + 4);
        if (offset_ + 8 + len > chunk.used) {
            saw_corruption_ = true;
            return false;
        }
        const char *data = chunk.data + offset_ + 8;
        if (segment_->frameChecksum(data, len) != crc) {
            saw_corruption_ = true;
            return false;
        }
        record->assign(data, len);
        offset_ += 8 + len;
        lock.unlock();
        segment_->device_->chargeRead(8 + len);
        return true;
    }
    return false;
}

} // namespace mio::wal
