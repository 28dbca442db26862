/**
 * @file
 * The malformed-trace corpus: every hostile, truncated, or corrupt
 * input here must be rejected with a UsageError carrying a useful
 * (line- or offset-bearing) diagnostic — never a crash, an uncaught
 * exception of another type, or an allocation the input does not
 * back. Runs under ASan+UBSan via the `asan` CMake preset (label
 * `trace`).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>

#include "common/logging.hh"
#include "test_util.hh"
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

namespace dirsim
{
namespace
{

using test::read;
using test::write;

Trace
sampleTrace()
{
    Trace trace("sample", 4);
    trace.append(read(100, 0x1000, flagLockSpin));
    trace.append(write(101, 0x2000, flagLockWrite));
    trace.append(read(102, 0x3000, flagSystem));
    trace.append(write(103, 0x2010));
    return trace;
}

std::string
binaryBytes(std::uint16_t version = traceformat::versionV2)
{
    std::stringstream buffer;
    writeBinaryTrace(sampleTrace(), buffer, version);
    return buffer.str();
}

/** Offset of the first record: header + 6-byte name "sample". */
constexpr std::size_t headerBytes = 4 + 2 + 2 + 4 + 6 + 8;

/** Assert rejection with a diagnostic containing @p needle. */
void
expectBinaryRejected(const std::string &bytes,
                     const std::string &needle)
{
    std::stringstream buffer(bytes);
    try {
        readBinaryTrace(buffer);
        FAIL() << "malformed binary trace was accepted";
    } catch (const UsageError &error) {
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << "diagnostic '" << error.what()
            << "' does not mention '" << needle << "'";
    }
}

void
expectTextRejected(const std::string &text, const std::string &needle)
{
    std::stringstream buffer(text);
    try {
        readTextTrace(buffer);
        FAIL() << "malformed text trace was accepted";
    } catch (const UsageError &error) {
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << "diagnostic '" << error.what()
            << "' does not mention '" << needle << "'";
    }
}

/** Wraps a string in a strictly forward-only (unseekable) buffer. */
class NonSeekableBuf : public std::streambuf
{
  public:
    explicit NonSeekableBuf(std::string bytes_arg)
        : bytes(std::move(bytes_arg))
    {
        setg(bytes.data(), bytes.data(),
             bytes.data() + bytes.size());
    }

  private:
    std::string bytes;
};

// --- binary corpus -------------------------------------------------------

TEST(MalformedTraceTest, EmptyStream)
{
    expectBinaryRejected("", "truncated");
}

TEST(MalformedTraceTest, TruncatedMagic)
{
    expectBinaryRejected("DS", "truncated");
}

TEST(MalformedTraceTest, BadMagic)
{
    expectBinaryRejected("NOPE rest of the file", "bad magic");
}

TEST(MalformedTraceTest, UnsupportedVersions)
{
    for (const unsigned char version : {0, 3, 255}) {
        std::string bytes = binaryBytes(traceformat::versionV1);
        bytes[4] = static_cast<char>(version);
        expectBinaryRejected(bytes, "unsupported binary trace version");
    }
}

TEST(MalformedTraceTest, ImplausibleNameLength)
{
    std::string bytes = binaryBytes();
    bytes[8] = '\xff'; // name length LSBs
    bytes[9] = '\xff';
    bytes[10] = '\xff';
    expectBinaryRejected(bytes, "name length");
}

TEST(MalformedTraceTest, NameLongerThanStream)
{
    // Plausible (< 4096) name length, but the stream ends first.
    std::string bytes = binaryBytes().substr(0, 12);
    bytes[8] = 100; // name length = 100, then EOF
    expectBinaryRejected(bytes, "truncated");
}

TEST(MalformedTraceTest, HugeRecordCountDoesNotAllocate)
{
    // A corrupt 64-bit count must be diagnosed against the container
    // length, not fed to reserve() (which would OOM-abort long
    // before any record could disprove it).
    std::string bytes = binaryBytes();
    for (std::size_t i = 0; i < 8; ++i)
        bytes[headerBytes - 8 + i] = '\xff';
    expectBinaryRejected(bytes, "declares");
}

TEST(MalformedTraceTest, HugeRecordCountOnUnseekableStream)
{
    // Without a seekable container the count cannot be pre-checked;
    // the reader must still fail with a clean truncation diagnostic
    // after the real records run out, having never trusted the count
    // for an allocation.
    std::string bytes = binaryBytes();
    for (std::size_t i = 0; i < 8; ++i)
        bytes[headerBytes - 8 + i] = '\xff';
    NonSeekableBuf buf(bytes);
    std::istream is(&buf);
    EXPECT_THROW(readBinaryTrace(is), UsageError);
}

TEST(MalformedTraceTest, CountLargerThanRecordsPresent)
{
    std::string bytes = binaryBytes();
    bytes[headerBytes - 8] =
        static_cast<char>(sampleTrace().size() + 1);
    expectBinaryRejected(bytes, "declares");
}

TEST(MalformedTraceTest, TruncatedMidRecord)
{
    const std::string whole = binaryBytes(traceformat::versionV1);
    const std::string bytes = whole.substr(0, whole.size() - 7);
    // Seekable: the up-front length check spots the shortfall.
    expectBinaryRejected(bytes, "declares");
    // Unseekable: the short read itself must be diagnosed.
    NonSeekableBuf buf(bytes);
    std::istream is(&buf);
    try {
        readBinaryTrace(is);
        FAIL() << "truncated record was accepted";
    } catch (const UsageError &error) {
        EXPECT_NE(std::string(error.what()).find("truncated"),
                  std::string::npos)
            << error.what();
    }
}

TEST(MalformedTraceTest, InvalidRecordType)
{
    std::string bytes = binaryBytes(traceformat::versionV1);
    bytes[headerBytes + 14] = 9; // type byte of record 0
    expectBinaryRejected(bytes, "invalid type");
}

TEST(MalformedTraceTest, UnknownFlagBits)
{
    std::string bytes = binaryBytes(traceformat::versionV1);
    bytes[headerBytes + 15] = '\x70'; // flags byte of record 0
    expectBinaryRejected(bytes, "unknown flag bits");
}

TEST(MalformedTraceTest, RecordCpuBeyondHeaderCount)
{
    std::string bytes = binaryBytes(traceformat::versionV1);
    bytes[headerBytes + 12] = 17; // cpu LSB of record 0; header says 4
    expectBinaryRejected(bytes, "declares only 4 CPUs");
}

TEST(MalformedTraceTest, ChecksumMismatch)
{
    std::string bytes = binaryBytes();
    // Flip an address bit of the last record: every per-record check
    // still passes, so only the trailing checksum can catch it.
    const std::size_t addr_byte =
        bytes.size() - traceformat::checksumBytes
        - traceformat::recordBytes;
    bytes[addr_byte] = static_cast<char>(bytes[addr_byte] ^ 0x01);
    expectBinaryRejected(bytes, "checksum mismatch");
}

TEST(MalformedTraceTest, CorruptStoredChecksum)
{
    std::string bytes = binaryBytes();
    bytes.back() = static_cast<char>(bytes.back() ^ 0xff);
    expectBinaryRejected(bytes, "checksum mismatch");
}

TEST(MalformedTraceTest, TruncatedChecksum)
{
    const std::string bytes =
        binaryBytes().substr(0, binaryBytes().size() - 3);
    // Seekable streams catch this up front via the length check;
    // unseekable ones when the trailer read comes up short.
    expectBinaryRejected(bytes, "declares");
    NonSeekableBuf buf(bytes);
    std::istream is(&buf);
    try {
        readBinaryTrace(is);
        FAIL() << "truncated checksum was accepted";
    } catch (const UsageError &error) {
        EXPECT_NE(std::string(error.what()).find("checksum"),
                  std::string::npos)
            << error.what();
    }
}

TEST(MalformedTraceTest, V1TracesHaveNoChecksumToCorrupt)
{
    // Sanity: the same bit flip v2 catches goes unnoticed in v1 —
    // that asymmetry is the point of v2.
    std::string bytes = binaryBytes(traceformat::versionV1);
    const std::size_t addr_byte =
        bytes.size() - traceformat::recordBytes;
    bytes[addr_byte] = static_cast<char>(bytes[addr_byte] ^ 0x01);
    std::stringstream buffer(bytes);
    const Trace loaded = readBinaryTrace(buffer);
    EXPECT_EQ(loaded.size(), sampleTrace().size());
    EXPECT_NE(loaded[loaded.size() - 1].addr,
              sampleTrace()[loaded.size() - 1].addr);
}

// --- text corpus ---------------------------------------------------------

TEST(MalformedTraceTest, TextNonNumericCpuCount)
{
    expectTextRejected("# cpus: banana\n0 1 read 100 -\n", "line 1");
}

TEST(MalformedTraceTest, TextNegativeCpuCount)
{
    expectTextRejected("# cpus: -4\n0 1 read 100 -\n",
                       "not a number");
}

TEST(MalformedTraceTest, TextOutOfRangeCpuCount)
{
    expectTextRejected("# cpus: 70000\n", "out of range");
    expectTextRejected("# cpus: 99999999999999999999\n",
                       "out of range");
}

TEST(MalformedTraceTest, TextRecordCpuBeyondHeader)
{
    expectTextRejected("# cpus: 4\n7 1 read 100 -\n",
                       "declares only 4 CPUs");
}

TEST(MalformedTraceTest, TextNonNumericCpu)
{
    expectTextRejected("x 1 read 100 -\n", "not a number");
}

TEST(MalformedTraceTest, TextOutOfRangeCpu)
{
    expectTextRejected("70000 1 read 100 -\n", "out of range");
}

TEST(MalformedTraceTest, TextNegativePid)
{
    expectTextRejected("0 -1 read 100 -\n", "not a number");
}

TEST(MalformedTraceTest, TextOutOfRangePid)
{
    expectTextRejected("0 4294967296 read 100 -\n", "out of range");
    expectTextRejected("0 99999999999999999999 read 100 -\n",
                       "out of range");
}

TEST(MalformedTraceTest, TextUnknownRefType)
{
    expectTextRejected("0 1 munge 100 -\n", "unknown reference type");
}

TEST(MalformedTraceTest, TextBadAddress)
{
    expectTextRejected("0 1 read zzz -\n", "bad address");
    expectTextRejected("0 1 read -10 -\n", "bad address");
    expectTextRejected("0 1 read 123456789012345678901 -\n",
                       "bad address");
}

TEST(MalformedTraceTest, TextUnknownFlag)
{
    expectTextRejected("0 1 read 100 wibble\n", "unknown flag");
    expectTextRejected("0 1 read 100 lockspin,wibble\n",
                       "unknown flag");
}

TEST(MalformedTraceTest, TextMalformedRecordLine)
{
    expectTextRejected("# cpus: 4\nnot a record line\n", "line 2");
}

TEST(MalformedTraceTest, TextDiagnosticsNameTheLine)
{
    expectTextRejected("# name: x\n# cpus: 2\n0 1 read 40 -\n"
                       "1 1 write 80 -\n0 1 read nope -\n",
                       "line 5");
}

// --- file readers name the file --------------------------------------------

/** Occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++count;
    return count;
}

/** The UsageError of draining openTraceSource(@p path). */
std::string
fileError(const std::string &path)
{
    try {
        const auto source = openTraceSource(path);
        TraceRecord record;
        while (source->next(record)) {
        }
    } catch (const UsageError &error) {
        return error.what();
    }
    return "no error";
}

TEST(MalformedTraceTest, FileReadersNameTheFileOnce)
{
    const std::string dir = testing::TempDir();
    const auto file = [&](const std::string &name,
                          const std::string &bytes) {
        const std::string path = dir + "/malformed_" + name;
        std::ofstream(path, std::ios::binary) << bytes;
        return path;
    };

    const std::string missing = dir + "/malformed_missing.trace";
    EXPECT_EQ(fileError(missing),
              "trace file '" + missing + "': cannot open for reading");

    // Header errors, record errors and trailer errors alike.
    std::string bad_version = binaryBytes();
    bad_version[4] = 'x';
    bad_version[5] = 'x';
    std::string bad_checksum = binaryBytes();
    bad_checksum[headerBytes] =
        static_cast<char>(bad_checksum[headerBytes] ^ 0x01);
    const std::pair<std::string, std::string> cases[] = {
        {file("version.trace", bad_version),
         "unsupported binary trace version 30840"},
        {file("type.trace",
              binaryBytes().replace(headerBytes + 14, 1, 1, '\x07')),
         "invalid type"},
        {file("checksum.trace", bad_checksum), "checksum mismatch"},
        {file("flags.txt", "# cpus: 2\n0 1 read 40 bogus\n"),
         "line 2: unknown flag"},
    };
    for (const auto &[path, needle] : cases) {
        const std::string message = fileError(path);
        EXPECT_EQ(message.rfind("trace file '" + path + "': ", 0), 0u)
            << message;
        EXPECT_EQ(countOf(message, path), 1u) << message;
        EXPECT_NE(message.find(needle), std::string::npos) << message;
    }

    // The whole-file readers share the constructors.
    try {
        readBinaryTraceFile(cases[0].first);
        ADD_FAILURE() << "bad version accepted";
    } catch (const UsageError &error) {
        EXPECT_EQ(countOf(error.what(), cases[0].first), 1u)
            << error.what();
    }
}

} // namespace
} // namespace dirsim
