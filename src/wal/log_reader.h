/**
 * @file
 * Sequential reader over a LogSegment's framed records, used during
 * crash recovery to rebuild the MemTable.
 */
#ifndef MIO_WAL_LOG_READER_H_
#define MIO_WAL_LOG_READER_H_

#include <string>

#include "wal/log_writer.h"

namespace mio::wal {

class LogReader
{
  public:
    explicit LogReader(const LogSegment *segment);

    /**
     * Read the next record. @return false at end of log or on a
     * corrupt frame (a torn tail terminates replay, as in LevelDB).
     */
    bool readRecord(std::string *record);

    /** True if a corrupt (checksum-mismatched) frame was encountered. */
    bool sawCorruption() const { return saw_corruption_; }

  private:
    const LogSegment *segment_;
    size_t chunk_index_ = 0;
    size_t offset_ = 0;
    bool saw_corruption_ = false;
};

} // namespace mio::wal

#endif // MIO_WAL_LOG_READER_H_
